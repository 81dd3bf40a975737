"""What importing the middleware costs a process.

Every organisation's process imports ``repro``; the telemetry plane
(and ``http.server``, ``ssl`` and ``email`` with it), the offline trace
tools, the gateway and the example applications load only when a caller
imports them.  Checked in a fresh interpreter, since the test process
has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

LOADED_ON_USE = [
    "http.server", "ssl", "email",
    "repro.obs.live", "repro.obs.merge", "repro.obs.recording",
    "repro.obs.report", "repro.obs.audit",
    "repro.gateway", "repro.apps",
]

PROBE = """
import contextlib, io, json, sys
import repro, repro.core
loaded = [name for name in {names!r} if name in sys.modules]

from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.recording import RecordingInstrumentation
community = Community(["A", "B"], runtime=SimRuntime(seed=1),
                      obs=RecordingInstrumentation())
community.found_object("doc", {{n: DictB2BObject() for n in "AB"}})
health = community.node("A").live().health

from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as report:
    status = main(["obs-report", "--seed", "3"])
print(json.dumps({{"loaded": loaded, "health": health, "status": status,
                  "report": report.getvalue()}}))
"""


def test_import_loads_no_telemetry_plane_and_it_still_loads_on_use():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(names=LOADED_ON_USE)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["health"] == "healthy"
    assert result["status"] == 0
    assert "== protocol ==" in result["report"]
