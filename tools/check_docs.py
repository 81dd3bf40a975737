#!/usr/bin/env python3
"""Documentation checker: broken links and stale examples fail the build.

Ten checks, all stdlib-only:

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
5. **Artefact writers** — every file in ``benchmarks/results/`` must be
   written by a ``benchmarks/bench_*.py`` that still exists (its file
   name, or for ``<id>.txt`` the quoted ``"<id>"``, appears in the
   bench's source), so a retired bench cannot leave its results behind.
6. **Event catalogue sections** — the hook and metric tables of
   ``docs/OBSERVABILITY.md`` must be exactly what
   ``repro.obs.catalogue`` renders now, so an event added, changed or
   removed without re-running ``tools/render_obs_docs.py`` (or a table
   edited by hand) fails the build.
7. **Report samples** — in ``README.md`` and ``docs/OBSERVABILITY.md``,
   every ``== name ==`` header in a code block after its
   ``repro obs-report`` line must be a metric prefix the catalogue
   produces (``repro.obs.report.SECTIONS``), so a quoted report cannot
   keep a section the renderer no longer prints.
8. **Imports in samples** — every ``from repro... import ...`` line in a
   fenced code block of a ``README.md`` or ``docs/*.md`` must import:
   the module loads and each name is in it (or is a submodule), so a
   sample cannot keep importing a name its package stopped exporting.
9. **Read types** — the field rows ``| `Type` | `a`, `b` |`` that
   ``docs/READS.md`` gives for ``ReadResult`` and ``Snapshot`` must name
   the types' fields in order, so the documented read contract cannot
   drift from ``repro.core.readcache``.
10. **Dotted names** — every back-ticked ``repro.<dotted.name>``
    (optionally followed by ``()``) in ``README.md``, ``DESIGN.md``,
    ``EXPERIMENTS.md`` or ``docs/*.md`` must import as a module or
    resolve as an attribute of one, so deleting a module, class or
    function cannot leave a documented name behind.

Run from the repository root (CI's ``docs-check`` job does):

    PYTHONPATH=src python tools/check_docs.py
    PYTHONPATH=src python tools/check_docs.py --tcp
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import difflib
import importlib
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

#: The read types whose fields ``docs/READS.md`` lists, and a field row.
READ_TYPES = ("ReadResult", "Snapshot")
READS_DOC = os.path.join("docs", "READS.md")
FIELD_ROW_RE = re.compile(r"^\| `(\w+)` \| (.*) \|$")

#: Files quoting ``repro obs-report`` output, and a report section header.
REPORT_DOCS = ("README.md", os.path.join("docs", "OBSERVABILITY.md"))
SECTION_RE = re.compile(r"^== (.+) ==$")

#: A code-block line importing names from the package.
IMPORT_RE = re.compile(r"^from repro(\.\w+)* import ")

#: Back-ticked repo paths that must exist (``results/`` is shorthand for
#: ``benchmarks/results/``); ``<id>``, ``*`` and ``{a,b}`` patterns are
#: placeholders, not files.
ARTEFACT_RE = re.compile(
    r"`((?:benchmarks|results|tools|examples|tests|src)/"
    r"[^`\s<>*{}]*\.(?:py|json|txt|md))`")

#: A back-ticked dotted name under the package, e.g. ``repro.core.Community``.
DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")

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


def top_level_doc_lines():
    """(relative path, line number, line) over ``README.md``,
    ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``."""
    docs_dir = os.path.join(REPO_ROOT, "docs")
    paths = [os.path.join(REPO_ROOT, name)
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    if os.path.isdir(docs_dir):
        paths += [os.path.join(docs_dir, name)
                  for name in sorted(os.listdir(docs_dir))
                  if name.endswith(".md")]
    for path in paths:
        if not os.path.exists(path):
            continue
        rel_path = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                yield rel_path, number, line


def check_artefact_references() -> "list[str]":
    """Back-ticked repo paths in the top-level docs must exist."""
    problems = []
    for rel_path, number, line in top_level_doc_lines():
        for target in ARTEFACT_RE.findall(line):
            resolved = (os.path.join("benchmarks", target)
                        if target.startswith("results/") else target)
            if not os.path.exists(os.path.join(REPO_ROOT, resolved)):
                problems.append(
                    f"{rel_path}:{number}: missing artefact -> {target}")
    return problems


def check_artefact_writers() -> "list[str]":
    """Every file in benchmarks/results/ must have a bench that writes it."""
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    results_dir = os.path.join(bench_dir, "results")
    if not os.path.isdir(results_dir):
        return []
    sources = ""
    for name in sorted(os.listdir(bench_dir)):
        if name.startswith("bench_") and name.endswith(".py"):
            with open(os.path.join(bench_dir, name), encoding="utf-8") as handle:
                sources += handle.read()
    problems = []
    for name in sorted(os.listdir(results_dir)):
        stem, ext = os.path.splitext(name)
        if name in sources or (ext == ".txt" and f'"{stem}"' in sources):
            continue
        problems.append(f"benchmarks/results/{name}: no benchmarks/bench_*.py "
                        f"writes it — delete it or the stale reference")
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


def check_report_samples() -> "list[str]":
    """Quoted obs-report sections must be prefixes the catalogue produces."""
    _src_on_path()
    from repro.obs.report import SECTIONS

    problems = []
    for rel in REPORT_DOCS:
        path = os.path.join(REPO_ROOT, rel)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        in_fence = after_command = False
        for number, line in enumerate(lines, start=1):
            if FENCE_RE.match(line.strip()):
                in_fence, after_command = not in_fence, False
                continue
            after_command |= in_fence and "repro obs-report" in line
            header = SECTION_RE.match(line.strip())
            if after_command and header and header[1] not in SECTIONS:
                problems.append(
                    f"{rel}:{number}: obs-report sample has section "
                    f"'== {header[1]} ==', which is no metric prefix of "
                    f"repro.obs.catalogue — re-run obs-report for the sample")
    return problems


def import_lines(text: str) -> "list[tuple[int, str]]":
    """(line_number, statement) for every ``from repro... import`` in a
    fenced code block, a parenthesised name list joined into one line."""
    found, pending, in_fence = [], None, False
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if FENCE_RE.match(stripped):
            in_fence, pending = not in_fence, None
        elif pending is not None:
            pending[1] += " " + stripped
            if ")" in stripped:
                found.append(tuple(pending))
                pending = None
        elif in_fence and IMPORT_RE.match(stripped):
            if "(" in stripped and ")" not in stripped:
                pending = [number, stripped]
            else:
                found.append((number, stripped))
    return found


def check_imports() -> "list[str]":
    """Sample imports of repro names must resolve."""
    _src_on_path()
    paths = [path for path in markdown_files()
             if os.path.basename(path) == "README.md"
             or os.path.dirname(path) == os.path.join(REPO_ROOT, "docs")]
    problems = []
    for path in paths:
        rel_path = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for number, statement in import_lines(text):
            node = ast.parse(statement.split("#", 1)[0]).body[0]
            try:
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        importlib.import_module(f"{node.module}.{alias.name}")
            except ImportError as exc:
                problems.append(f"{rel_path}:{number}: {statement!r} "
                                f"does not import: {exc}")
    return problems


def resolves(dotted: str) -> bool:
    """Whether *dotted* imports as a module or is an attribute chain
    under the longest prefix of it that imports."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_dotted_names() -> "list[str]":
    """Back-ticked ``repro.*`` names in the top-level docs must resolve."""
    _src_on_path()
    return [f"{rel_path}:{number}: `{name}` does not resolve"
            for rel_path, number, line in top_level_doc_lines()
            for name in DOTTED_RE.findall(line) if not resolves(name)]


def check_read_fields() -> "list[str]":
    """The field rows of docs/READS.md must be the read types' fields."""
    _src_on_path()
    from repro.core import readcache

    with open(os.path.join(REPO_ROOT, READS_DOC), encoding="utf-8") as handle:
        rows = {match[1]: re.findall(r"`(\w+)`", match[2])
                for match in map(FIELD_ROW_RE.match, handle.read().splitlines())
                if match}
    problems = []
    for name in READ_TYPES:
        cls = getattr(readcache, name)
        fields = list(getattr(cls, "_fields", None)
                      or (field.name for field in dataclasses.fields(cls)))
        if rows.get(name) != fields:
            problems.append(f"{READS_DOC}: the field row of `{name}` lists "
                            f"{rows.get(name)}, the type has {fields}")
    return problems


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
    problems += check_artefact_writers()
    problems += check_catalogue_sections()
    problems += check_report_samples()
    problems += check_imports()
    problems += check_read_fields()
    problems += check_dotted_names()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\ndocs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-check: all markdown links, artefact references, sample "
          "imports and dotted names resolve, all examples run and the "
          "event catalogue sections, report samples and read-type fields "
          "are current")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
