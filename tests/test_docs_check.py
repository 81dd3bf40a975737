"""The docs checker itself: broken links and stale examples are caught."""

from __future__ import annotations

import importlib.util
import os

import pytest

TOOL_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "tools", "check_docs.py")


@pytest.fixture
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_are_clean(check_docs):
    """The committed documentation passes its own gate."""
    assert check_docs.check_links() == []
    assert check_docs.check_examples() == []
    assert check_docs.check_artefact_references() == []
    assert check_docs.check_artefact_writers() == []
    assert check_docs.check_catalogue_sections() == []
    assert check_docs.check_report_samples() == []
    assert check_docs.check_imports() == []
    assert check_docs.check_read_fields() == []
    assert check_docs.check_dotted_names() == []


def test_broken_link_reported(check_docs, tmp_path, monkeypatch):
    (tmp_path / "doc.md").write_text(
        "see [the spec](missing/SPEC.md) and [web](https://example.com)\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_links()
    assert len(problems) == 1
    assert "missing/SPEC.md" in problems[0]


def test_links_inside_code_blocks_ignored(check_docs, tmp_path, monkeypatch):
    (tmp_path / "doc.md").write_text(
        "```\n[not a link](nowhere.md)\n```\n"
        "and inline `[also not](gone.md)` code\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    assert check_docs.check_links() == []


def test_anchors_and_existing_targets_resolve(check_docs, tmp_path,
                                              monkeypatch):
    (tmp_path / "other.md").write_text("# other\n")
    (tmp_path / "doc.md").write_text(
        "[sibling](other.md#some-anchor) [self](#local)\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    assert check_docs.check_links() == []


def test_failing_example_reported(check_docs, tmp_path, monkeypatch):
    (tmp_path / "BAD.md").write_text(
        "intro\n```python\nraise RuntimeError('stale example')\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(check_docs, "EXECUTABLE_DOCS", ("BAD.md",))
    problems = check_docs.check_examples()
    assert len(problems) == 1
    assert "stale example" in problems[0]


def test_placeholder_examples_skipped(check_docs, tmp_path, monkeypatch):
    (tmp_path / "DOC.md").write_text(
        "```python\nconnect(host, ...)  # illustrative\n```\n"
        "```python\nx = 1 + 1\nassert x == 2\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(check_docs, "EXECUTABLE_DOCS", ("DOC.md",))
    assert check_docs.check_examples() == []


def test_missing_artefact_reported(check_docs, tmp_path, monkeypatch):
    (tmp_path / "benchmarks" / "results").mkdir(parents=True)
    (tmp_path / "benchmarks" / "bench_kept.py").write_text("")
    (tmp_path / "benchmarks" / "results" / "C1.txt").write_text("")
    (tmp_path / "README.md").write_text(
        "`benchmarks/bench_kept.py` writes `results/C1.txt`; "
        "`benchmarks/bench_deleted.py` wrote `results/C99.txt`; "
        "`benchmarks/results/<id>.txt` and `repro.core` are not paths\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_artefact_references()
    assert len(problems) == 2
    assert "benchmarks/bench_deleted.py" in problems[0]
    assert "results/C99.txt" in problems[1]


def test_artefact_no_bench_writes_reported(check_docs, tmp_path,
                                           monkeypatch):
    """A result file is kept only while a bench still writes it."""
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    (tmp_path / "benchmarks" / "bench_kept.py").write_text(
        'report("C1", "title", body)\n'
        'JSON = "BENCH_kept.json"\n')
    for name in ("C1.txt", "C12.txt", "BENCH_kept.json",
                 "BENCH_retired.json"):
        (results / name).write_text("")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_artefact_writers()
    assert len(problems) == 2
    assert "benchmarks/results/BENCH_retired.json" in problems[0]
    assert "benchmarks/results/C12.txt" in problems[1]


def test_drifted_catalogue_sections_reported(check_docs, tmp_path,
                                             monkeypatch):
    """A hand-edited row, a missing row and a lost marker all fail."""
    with open(os.path.join(check_docs.REPO_ROOT, "docs",
                           "OBSERVABILITY.md"), encoding="utf-8") as handle:
        committed = handle.read()
    (tmp_path / "docs").mkdir()
    target = tmp_path / "docs" / "OBSERVABILITY.md"
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))

    target.write_text(committed, encoding="utf-8")
    assert check_docs.check_catalogue_sections() == []

    edited = committed.replace("| `pipeline.batches` | counter | 1 |",
                               "| `pipeline.batched` | counter | 1 |")
    assert edited != committed
    target.write_text(edited, encoding="utf-8")
    (problem,) = check_docs.check_catalogue_sections()
    assert "render_obs_docs.py" in problem
    assert "-| `pipeline.batched` | counter" in problem
    assert "+| `pipeline.batches` | counter" in problem

    dropped = "".join(line for line in committed.splitlines(keepends=True)
                      if "`handler_error(party, site)`" not in line)
    target.write_text(dropped, encoding="utf-8")
    (problem,) = check_docs.check_catalogue_sections()
    assert "+| transport | `handler_error(party, site)`" in problem

    target.write_text(committed.replace("<!-- /catalogue:metrics -->", ""),
                      encoding="utf-8")
    (problem,) = check_docs.check_catalogue_sections()
    assert "catalogue:metrics" in problem


def test_drifted_report_sample_reported(check_docs, tmp_path, monkeypatch):
    """A quoted obs-report section the renderer cannot print fails; a
    header outside an obs-report block or before its command does not."""
    (tmp_path / "README.md").write_text(
        "```\n== before ==\n$ PYTHONPATH=src python -m repro obs-report\n"
        "== protocol ==\n...\n== proposal pipeline ==\n```\n"
        "== gone ==\n```\n== unrelated ==\n```\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    (problem,) = check_docs.check_report_samples()
    assert problem.startswith("README.md:6: ")
    assert "'== proposal pipeline =='" in problem


def test_drifted_sample_import_reported(check_docs, tmp_path, monkeypatch):
    """A code-block import of a name its module does not hold fails,
    wrapped in parentheses or not; submodules, prose and other packages
    are fine."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "`from repro.obs import Tracer` in prose is not checked\n"
        "```python\n"
        "from repro.obs import NULL_INSTRUMENTATION\n"
        "from repro.obs import RecordingInstrumentation\n"
        "from repro.obs.live import (FlightRecorder,\n"
        "                            NoSuchMonitor)\n"
        "from repro.obs import recording  # a submodule\n"
        "from json import nothing_here\n"
        "```\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    first, second = check_docs.check_imports()
    assert first.startswith("docs/GUIDE.md:4: ")
    assert "RecordingInstrumentation" in first
    assert second.startswith("docs/GUIDE.md:5: ")
    assert "NoSuchMonitor" in second


def test_read_type_field_drift_reported(check_docs, tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "READS.md").write_text(
        "| type | fields |\n|---|---|\n"
        "| `ReadResult` | `snapshot`, `mode`, `hit` |\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_read_fields()
    assert len(problems) == 2
    assert "`ReadResult`" in problems[0] and "'staleness'" in problems[0]
    assert "`Snapshot`" in problems[1] and "None" in problems[1]


def test_stale_dotted_name_reported(check_docs, tmp_path, monkeypatch):
    """A documented ``repro.*`` name must be a module or an attribute of
    one; a call's ``()`` is allowed, and other packages are not checked."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "DESIGN.md").write_text(
        "| detection | `repro.protocol.detection`, `repro.faults` |\n",
        encoding="utf-8")
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "`repro.core.Community.found_object()` and "
        "`repro.protocol.events.MisbehaviourEvent` resolve, "
        "`json.nothing_here` is not ours,\n"
        "`repro.core.node.OrganisationNode.submit_composite()` is gone\n",
        encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "src"))
    first, second = check_docs.check_dotted_names()
    assert first == "DESIGN.md:1: `repro.protocol.detection` does not resolve"
    assert second.startswith("docs/GUIDE.md:2: ")
    assert "submit_composite" in second
