"""The unreached-code sweep itself (``tools/unreached.py``).

Runs the collector on a tiny package: one pytest run over its ``tests/``
and one plain script, then checks the three lists exactly.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(ROOT, "tools", "unreached.py")

UNCALLED = '''def uncalled():
    return 2
'''

DECORATED_UNCALLED = '''@traced
def decorated_uncalled():
    return 6
'''

PACKAGE = '''import functools
import threading


def called():
    return 1


''' + UNCALLED + '''

def tests_only():
    return 3


def after_profile_off():
    return 4


def traced(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)
    return wrapper


@traced
def decorated():
    return 5


''' + DECORATED_UNCALLED + '''

def on_worker():
    return 7


def start_worker():
    worker = threading.Thread(target=on_worker)
    worker.start()
    worker.join()


class Port:
    def send(self, data):
        """Deliver *data*."""
        raise NotImplementedError
'''

MAIN = '''import subprocess
import sys

import tiny

tiny.called()
tiny.decorated()
tiny.start_worker()
subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
'''

TESTS = '''import sys

import tiny


def test_switches_profiling_off():
    tiny.tests_only()
    sys.setprofile(None)


def test_after():
    tiny.after_profile_off()
'''


@pytest.fixture(scope="module")
def unreached():
    spec = importlib.util.spec_from_file_location("unreached", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_of_a_tiny_package(unreached, tmp_path):
    package = tmp_path / "src" / "tiny"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(TESTS)
    (tmp_path / "main.py").write_text(MAIN)
    env = {"PYTHONPATH": str(tmp_path / "src")}
    runs = [
        unreached.Run(unreached.TESTS,
                      [sys.executable, "-m", "pytest", "-q", "-p",
                       "unreached_plugin", "-p", "no:cacheprovider", "tests"],
                      env),
        unreached.Run("main", [sys.executable, "main.py"], env),
    ]
    collected = unreached.collect(runs, str(package), str(tmp_path),
                                  timeout=120)
    assert [code for _, _, code in collected["exit"]] == [0, 0]

    found = unreached.functions(str(package))
    never, tests_only, stubs = unreached.classify(found, collected["entered"])
    assert [(f.qualname, f.size) for f in never] == [
        ("uncalled", len(UNCALLED)),
        ("decorated_uncalled", len(DECORATED_UNCALLED))]
    # after_profile_off runs in the test after the one that switched
    # profiling off: the plugin re-installs the hook for each test.
    assert [f.qualname for f in tests_only] == ["tests_only",
                                                "after_profile_off"]
    assert [f.qualname for f in stubs] == ["Port.send"]
    assert {f.module for f in found} == {"tiny"}

    # The child started with -I skips the user site, so no profile came.
    [(pid, args, where)] = collected["unseen"]
    assert args[1:] == ["-I", "-c", "pass"] and pid is not None
    assert where.endswith("main.py:9")


def test_every_keep_entry_names_a_function(unreached):
    names = {f"{f.module}:{f.qualname}"
             for f in unreached.functions(os.path.join(ROOT, "src", "repro"))}
    assert sorted(set(unreached.KEEP) - names) == []
    assert all(reason.strip() for reason in unreached.KEEP.values())


def test_exit_code_gates_on_list_one_only(unreached, tmp_path, monkeypatch,
                                          capsys):
    """The sweep fails on a never-entered function KEEP does not explain,
    and not on a tests-only one."""
    (tmp_path / "benchmarks" / "results").mkdir(parents=True)
    dead = unreached.Function("m", "dead", "m.py", 1, 10, False)
    tested = unreached.Function("m", "tested", "m.py", 5, 10, False)
    monkeypatch.setattr(unreached, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(unreached, "functions", lambda package: [dead, tested])
    monkeypatch.setattr(unreached, "collect", lambda runs, package, cwd: {
        "entered": {unreached.TESTS: {("m.py", 5)}}, "exit": [],
        "unseen": []})
    assert unreached.main() == 1
    monkeypatch.setitem(unreached.KEEP, "m:dead", "a reason")
    assert unreached.main() == 0
    assert "1 not in KEEP" in capsys.readouterr().out  # list 2, not gated
