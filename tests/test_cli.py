"""Command-line interface."""

from __future__ import annotations

import json
import re
import sys

import pytest

from repro.cli import main
from repro.storage.backends import FileRecordStore
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import canonical_bytes, from_canonical_bytes


@pytest.fixture
def log_file(tmp_path):
    path = str(tmp_path / "evidence.jsonl")
    log = NonRepudiationLog("OrgA", FileRecordStore(path))
    log.record("proposal-sent", {"run_id": "r1", "mode": "overwrite"})
    log.record("authenticated-decision", {"run_id": "r1", "valid": True})
    log._store.close()
    return path


class TestVerifyLog:
    def test_intact_log(self, log_file, capsys):
        assert main(["verify-log", log_file, "--owner", "OrgA"]) == 0
        out = capsys.readouterr().out
        assert "OK: 2 entries" in out

    def test_corrupt_log(self, log_file, capsys):
        with open(log_file, "rb") as handle:
            lines = handle.read().splitlines()
        record = from_canonical_bytes(lines[0])
        record["payload"]["run_id"] = "tampered"
        lines[0] = canonical_bytes(record)
        with open(log_file, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        assert main(["verify-log", log_file, "--owner", "OrgA"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestShowLog:
    def test_lists_entries(self, log_file, capsys):
        assert main(["show-log", log_file, "--owner", "OrgA"]) == 0
        out = capsys.readouterr().out
        assert "proposal-sent" in out and "authenticated-decision" in out

    def test_kind_filter(self, log_file, capsys):
        assert main(["show-log", log_file, "--owner", "OrgA",
                     "--kind", "proposal-sent"]) == 0
        out = capsys.readouterr().out
        assert "proposal-sent" in out
        assert "authenticated-decision" not in out


class TestKeygen:
    def test_writes_keypair_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "key.json")
        assert main(["keygen", "--id", "OrgZ", "--bits", "512",
                     "--out", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["party_id"] == "OrgZ"
        assert record["private_key"]["n"] == (
            record["private_key"]["p"] * record["private_key"]["q"]
        )

    def test_prints_to_stdout(self, capsys):
        assert main(["keygen", "--id", "OrgY", "--bits", "512"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["bits"] == 512


class TestSimulate:
    def test_clean_run(self, capsys):
        assert main(["simulate", "--parties", "3", "--updates", "3",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "completed: 3" in out
        assert "replicas converged: yes" in out

    def test_lossy_run(self, capsys):
        assert main(["simulate", "--parties", "2", "--updates", "2",
                     "--drop", "0.2", "--seed", "2"]) == 0
        assert "replicas converged: yes" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "nonexistent"])

    def test_demo_runs_an_example(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        assert main(["demo", "quickstart"]) == 0
        assert "OrgB sees: {'widget1': {'quantity': 2}}" in (
            capsys.readouterr().out)


class TestBundleWorkflow:
    """export-decisions + verify-bundle: the arbitration workflow."""

    def _run_coordination(self, tmp_path):
        from repro.core import Community, DictB2BObject, SimRuntime
        from repro.storage.backends import FileRecordStore
        from repro.storage.log import NonRepudiationLog

        community = Community(["OrgA", "OrgB"], runtime=SimRuntime(seed=70))
        ctx = community.node("OrgA").ctx
        ctx.evidence = NonRepudiationLog(
            "OrgA", FileRecordStore(str(tmp_path / "ev.jsonl")))
        objects = {n: DictB2BObject() for n in community.names()}
        controllers = community.found_object("deal", objects)
        controller = controllers["OrgA"]
        controller.enter()
        controller.overwrite()
        objects["OrgA"].set_attribute("clause", "agreed")
        controller.leave()
        community.settle()
        ctx.evidence._store.close()
        keys = {
            "parties": {
                name: community.certificates[name].public_key
                for name in community.names()
            },
            "tsa": community.tsa._keypair.public_key.to_dict(),
        }
        return str(tmp_path / "ev.jsonl"), keys

    def test_export_and_verify(self, tmp_path, capsys):
        log_path, keys = self._run_coordination(tmp_path)
        out_dir = str(tmp_path / "bundles")
        assert main(["export-decisions", log_path, "--owner", "OrgA",
                     "--out", out_dir]) == 0
        import os
        bundles = os.listdir(out_dir)
        assert len(bundles) == 1
        keys_path = str(tmp_path / "keys.json")
        with open(keys_path, "w", encoding="utf-8") as handle:
            json.dump(keys, handle)
        bundle_path = os.path.join(out_dir, bundles[0])
        assert main(["verify-bundle", bundle_path, "--keys", keys_path]) == 0
        out = capsys.readouterr().out
        assert "authentic:  True" in out and "valid:      True" in out

    def test_tampered_bundle_fails_verification(self, tmp_path, capsys):
        from repro.util.encoding import canonical_bytes, from_canonical_bytes
        log_path, keys = self._run_coordination(tmp_path)
        out_dir = str(tmp_path / "bundles")
        main(["export-decisions", log_path, "--owner", "OrgA",
              "--out", out_dir])
        import os
        bundle_path = os.path.join(out_dir, os.listdir(out_dir)[0])
        with open(bundle_path, "rb") as handle:
            bundle = from_canonical_bytes(handle.read())
        bundle["proposal"]["payload"]["object"] = "forged-object"
        with open(bundle_path, "wb") as handle:
            handle.write(canonical_bytes(bundle))
        keys_path = str(tmp_path / "keys.json")
        with open(keys_path, "w", encoding="utf-8") as handle:
            json.dump(keys, handle)
        assert main(["verify-bundle", bundle_path, "--keys", keys_path]) == 1
        assert "problem" in capsys.readouterr().out

    def test_missing_key_fails(self, tmp_path, capsys):
        log_path, keys = self._run_coordination(tmp_path)
        out_dir = str(tmp_path / "bundles")
        main(["export-decisions", log_path, "--owner", "OrgA",
              "--out", out_dir])
        import os
        bundle_path = os.path.join(out_dir, os.listdir(out_dir)[0])
        del keys["parties"]["OrgB"]
        keys_path = str(tmp_path / "keys.json")
        with open(keys_path, "w", encoding="utf-8") as handle:
            json.dump(keys, handle)
        assert main(["verify-bundle", bundle_path, "--keys", keys_path]) == 1


class TestSimulateWithFaults:
    def test_crash_fault_run(self, capsys):
        assert main(["simulate", "--parties", "3", "--updates", "3",
                     "--fault", "crash", "--failures", "2",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "armed 2 temporary crash fault(s)" in out
        assert "replicas converged: yes" in out

    def test_partition_fault_run(self, capsys):
        assert main(["simulate", "--parties", "3", "--updates", "2",
                     "--fault", "partition", "--failures", "1",
                     "--seed", "6"]) == 0
        assert "replicas converged: yes" in capsys.readouterr().out


class TestObsReportJson:
    def test_json_output_parses(self, capsys):
        assert main(["obs-report", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3
        metrics = payload["metrics"]
        assert metrics["counters"]["protocol.runs.started"] > 0
        assert "histograms" in metrics

    def test_text_output_unchanged(self, capsys):
        assert main(["obs-report", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "== protocol ==" in out

    def test_tcp_transport_over_lossy_sockets(self, capsys):
        argv = ["obs-report", "--transport", "tcp", "--drop", "0.1",
                "--seed", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "transport=tcp " in out.splitlines()[0]
        assert "winner: X" in out
        assert main(argv + ["--json"]) == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        assert counters["transport.tcp.connections_opened"] > 0


class TestGatewaySimCrash:
    def test_crash_scenario_reports_health_story(self, tmp_path, capsys):
        dump = str(tmp_path / "flight.jsonl")
        assert main(["gateway-sim", "--clients", "60", "--requests", "2",
                     "--seed", "7", "--queue-capacity", "256",
                     "--max-batch", "64",
                     "--arrival-window", "3.0",
                     "--crash-org", "Org2", "--crash-at", "1.0",
                     "--recover-at", "4.0", "--watchdog", "0.5",
                     "--flight-dump", dump]) == 0
        out = capsys.readouterr().out
        assert "agreed state: applied=120 total=120" in out
        # The stall alert fires while Org2 is down, before --recover-at,
        # and health ends healthy once the backlog has drained.
        alerts = re.search(r"health alerts: stalled_runs\[unhealthy\]"
                           r"@([0-9.]+)s", out)
        assert alerts and 1.0 < float(alerts.group(1)) < 4.0
        moved = re.search(r"healthy->unhealthy@([0-9.]+)s", out)
        assert moved and float(moved.group(1)) < 4.0
        assert "unhealthy->healthy@" in out
        assert "node health: healthy" in out
        with open(dump, encoding="utf-8") as handle:
            names = {json.loads(line)["name"] for line in handle}
        assert "protocol.message" in names


class TestServeMetrics:
    def test_probe_and_exit(self, capsys):
        assert main(["serve-metrics", "--port", "0", "--rounds", "1",
                     "--updates", "4", "--duration", "0",
                     "--probe"]) == 0
        out = capsys.readouterr().out
        assert "probe /metrics: 200" in out
        assert "probe /metrics.json: 200" in out
        assert "probe /health: 200" in out


class TestTopAndFlightDump:
    @pytest.fixture
    def telemetry_url(self):
        from repro.obs.live import (FlightRecorder, HealthMonitor,
                                    TelemetryServer)
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        registry = MetricsRegistry()
        registry.counter("protocol.runs.started").inc(3)
        registry.counter("protocol.runs.valid").inc(3)
        flight = FlightRecorder(capacity=8)
        Tracer(exporters=[flight]).event("run.started", run_id="r1")
        monitor = HealthMonitor(registry, rules=[])
        server = TelemetryServer(registry, monitor=monitor,
                                 flight=flight).start()
        yield server.url
        server.stop()

    def test_top_iterations(self, telemetry_url, capsys):
        assert main(["top", "--url", telemetry_url,
                     "--interval", "0.01", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "healthy" in out

    def test_flight_dump_to_file(self, telemetry_url, tmp_path, capsys):
        out_path = str(tmp_path / "dump.jsonl")
        assert main(["flight-dump", "--url", telemetry_url,
                     "--out", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            assert json.loads(handle.readline())["name"] == "run.started"

    def test_flight_dump_stdout(self, telemetry_url, capsys):
        assert main(["flight-dump", "--url", telemetry_url]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["run_id"] == "r1"

    def test_flight_dump_unreachable(self, capsys):
        assert main(["flight-dump",
                     "--url", "http://127.0.0.1:9/"]) == 1
