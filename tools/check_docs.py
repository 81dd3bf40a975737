#!/usr/bin/env python3
"""Documentation checker: broken links and stale examples fail the build.

Five checks, all stdlib-only:

1. **Intra-repo markdown links** — every ``[text](target)`` in every
   tracked ``*.md`` file whose target is not an external URL or pure
   anchor must resolve to an existing file or directory (anchors are
   stripped, targets resolve relative to the linking file).
2. **Embedded Python examples** — every fenced ```` ```python ````
   block in the ``EXECUTABLE_DOCS`` files is executed with ``src`` on
   ``sys.path``.  Blocks containing ``...`` placeholders are skipped
   as illustrative.  An example that raises fails the check — so the
   documented API cannot silently drift from the implementation.
   ``--tcp`` exports ``REPRO_DOCS_TCP=1`` so examples that honour it
   (``docs/READS.md``) run over real TCP sockets instead of the
   simulator.
3. **Experiment-count consistency** — the experiment count stated in
   ``README.md`` must equal the number of experiment rows in the
   ``EXPERIMENTS.md`` table, so the docs cannot rot as benches land.
4. **Artefact references** — every back-ticked repo path (``.py``,
   ``.json``, ``.txt``, ``.md`` under ``benchmarks/``, ``results/``,
   ``tools/``, ``examples/``, ``tests/`` or ``src/``) quoted in
   ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` or ``docs/*.md``
   must exist, so deleting a bench or a result cannot leave a pointer
   behind.
5. **Event catalogue sections** — the hook and metric tables of
   ``docs/OBSERVABILITY.md`` must be exactly what
   ``repro.obs.catalogue`` renders now, so an event added, changed or
   removed without re-running ``tools/render_obs_docs.py`` (or a table
   edited by hand) fails the build.

Run from the repository root (CI's ``docs-check`` job does):

    PYTHONPATH=src python tools/check_docs.py
    PYTHONPATH=src python tools/check_docs.py --tcp
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import sys
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories never scanned for markdown files.
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".claude",
             "node_modules", "results"}

#: Files whose ```python blocks must execute cleanly.
EXECUTABLE_DOCS = ("README.md", os.path.join("docs", "API.md"),
                   os.path.join("docs", "GATEWAY.md"),
                   os.path.join("docs", "PROTOCOL.md"),
                   os.path.join("docs", "READS.md"))

#: README phrasing that must track the EXPERIMENTS.md table.
EXPERIMENT_COUNT_RE = re.compile(r"(\d+) experiments")
EXPERIMENT_ROW_RE = re.compile(r"^\| [FC]\d")

#: Back-ticked repo paths that must exist (``results/`` is shorthand for
#: ``benchmarks/results/``); ``<id>``, ``*`` and ``{a,b}`` patterns are
#: placeholders, not files.
ARTEFACT_RE = re.compile(
    r"`((?:benchmarks|results|tools|examples|tests|src)/"
    r"[^`\s<>*{}]*\.(?:py|json|txt|md))`")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_CODE_RE = re.compile(r"`[^`]*`")


def markdown_files() -> "list[str]":
    found = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return found


def iter_prose_lines(text: str):
    """(line_number, line) for lines outside fenced code blocks, with
    inline code spans blanked so code snippets never look like links."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, INLINE_CODE_RE.sub("", line)


def check_links() -> "list[str]":
    problems = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        base = os.path.dirname(path)
        rel_path = os.path.relpath(path, REPO_ROOT)
        for number, line in iter_prose_lines(text):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target = target.split("#", 1)[0]
                if not target:
                    continue
                resolved = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(resolved):
                    problems.append(
                        f"{rel_path}:{number}: broken link -> {target}"
                    )
    return problems


def python_blocks(text: str) -> "list[tuple[int, str]]":
    """(starting_line, source) for every ```python fenced block."""
    blocks = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        if lines[index].strip().lower() in ("```python", "```py"):
            start = index + 1
            body = []
            index += 1
            while index < len(lines) and not lines[index].strip().startswith("```"):
                body.append(lines[index])
                index += 1
            blocks.append((start + 1, "\n".join(body)))
        index += 1
    return blocks


def _src_on_path() -> None:
    src_dir = os.path.join(REPO_ROOT, "src")
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)


def check_examples() -> "list[str]":
    problems = []
    _src_on_path()
    for rel in EXECUTABLE_DOCS:
        path = os.path.join(REPO_ROOT, rel)
        if not os.path.exists(path):
            problems.append(f"{rel}: executable-docs file missing")
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for line_number, source in python_blocks(text):
            if "..." in source:
                continue  # illustrative snippet, not a runnable example
            namespace = {"__name__": f"docs_example_{line_number}"}
            try:
                exec(compile(source, f"{rel}:{line_number}", "exec"),
                     namespace)
            except Exception:
                trace = traceback.format_exc(limit=3).rstrip()
                problems.append(
                    f"{rel}:{line_number}: example failed\n{trace}"
                )
    return problems


def check_experiment_count() -> "list[str]":
    """README's stated experiment count must match EXPERIMENTS.md."""
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md"),
              encoding="utf-8") as handle:
        rows = sum(1 for line in handle
                   if EXPERIMENT_ROW_RE.match(line))
    with open(os.path.join(REPO_ROOT, "README.md"),
              encoding="utf-8") as handle:
        stated = [int(m.group(1))
                  for m in EXPERIMENT_COUNT_RE.finditer(handle.read())]
    problems = []
    if not stated:
        problems.append("README.md: no 'N experiments' count found")
    for count in stated:
        if count != rows:
            problems.append(
                f"README.md says '{count} experiments' but EXPERIMENTS.md "
                f"has {rows} experiment rows — update the README"
            )
    return problems


def check_artefact_references() -> "list[str]":
    """Back-ticked repo paths in the top-level docs must exist."""
    docs_dir = os.path.join(REPO_ROOT, "docs")
    paths = [os.path.join(REPO_ROOT, name)
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    if os.path.isdir(docs_dir):
        paths += [os.path.join(docs_dir, name)
                  for name in sorted(os.listdir(docs_dir))
                  if name.endswith(".md")]
    problems = []
    for path in paths:
        if not os.path.exists(path):
            continue
        rel_path = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                for target in ARTEFACT_RE.findall(line):
                    resolved = (os.path.join("benchmarks", target)
                                if target.startswith("results/") else target)
                    if not os.path.exists(os.path.join(REPO_ROOT, resolved)):
                        problems.append(
                            f"{rel_path}:{number}: missing artefact -> "
                            f"{target}"
                        )
    return problems


def check_catalogue_sections() -> "list[str]":
    """docs/OBSERVABILITY.md's rendered tables must match the catalogue."""
    _src_on_path()
    from repro.obs.catalogue import render_docs

    rel = os.path.join("docs", "OBSERVABILITY.md")
    with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as handle:
        text = handle.read()
    try:
        rendered = render_docs(text)
    except ValueError as exc:
        return [f"{rel}: {exc}"]
    if rendered == text:
        return []
    diff = "\n".join(difflib.unified_diff(
        text.splitlines(), rendered.splitlines(), rel,
        "repro.obs.catalogue", lineterm="", n=0))
    return [f"{rel}: catalogue sections are stale — run "
            f"tools/render_obs_docs.py\n{diff}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tcp", action="store_true",
        help="run REPRO_DOCS_TCP-aware examples over real TCP sockets "
             "(default: simulator)")
    options = parser.parse_args()
    if options.tcp:
        os.environ["REPRO_DOCS_TCP"] = "1"
    problems = check_links()
    problems += check_examples()
    problems += check_experiment_count()
    problems += check_artefact_references()
    problems += check_catalogue_sections()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\ndocs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-check: all markdown links and artefact references resolve, "
          "all examples run and the event catalogue sections are current")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
