"""Evidence forensics: ``repro audit`` over the Figure 5 cheat scenario."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import _run_forensic_game, main
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.signature import RsaVerifier
from repro.obs.audit import (
    CorruptEvidenceLog,
    audit_evidence,
    load_evidence_log,
)
from repro.obs.merge import merge_trace_files
from repro.obs.recording import RecordingInstrumentation

PARTIES = ("Cross", "Nought", "Witness")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One instrumented lossy-link game with the Figure 5 cheat, exported
    the way a real deployment would hand things to an auditor: per-party
    trace files, per-organisation evidence logs, and a keys.json."""
    export_dir = str(tmp_path_factory.mktemp("forensics"))
    _community, objects, rejected, _obs, trace_paths = _run_forensic_game(
        seed=3, latency=0.005, drop=0.15, duplicate=0.05,
        export_dir=export_dir,
    )
    return {
        "export_dir": export_dir,
        "rejected": rejected,
        "board": objects["Witness"].board,
        "trace_paths": dict(trace_paths),
        "evidence": {name: os.path.join(export_dir, "evidence", name,
                                        "evidence.jsonl")
                     for name in PARTIES},
        "keys": os.path.join(export_dir, "keys.json"),
    }


def _verifiers(keys_path):
    with open(keys_path, encoding="utf-8") as handle:
        key_data = json.load(handle)
    parties = {party: RsaVerifier(RsaPublicKey.from_dict(key))
               for party, key in key_data["parties"].items()}
    tsa = RsaVerifier(RsaPublicKey.from_dict(key_data["tsa"]))
    return parties, tsa


def _audit(artifacts, merged=None, obs=None, logs=None):
    verifiers, tsa_verifier = _verifiers(artifacts["keys"])
    if logs is None:
        logs = {name: load_evidence_log(name, path)
                for name, path in artifacts["evidence"].items()}
    return audit_evidence(logs, verifiers.__getitem__,
                          tsa_verifier=tsa_verifier, merged=merged, obs=obs)


class TestArtifacts:
    def test_game_exports_per_party_artifacts(self, artifacts):
        assert sorted(artifacts["trace_paths"]) == sorted(PARTIES)
        for path in artifacts["trace_paths"].values():
            assert os.path.getsize(path) > 0
        for path in artifacts["evidence"].values():
            assert os.path.getsize(path) > 0
        assert os.path.exists(artifacts["keys"])
        # The cheat was vetoed on the wire; every honest move stuck.
        assert artifacts["rejected"] == 1
        assert artifacts["board"].count("") == 4  # 5 honest moves landed


class TestAuditVerdicts:
    def test_convicts_cheater_exonerates_honest_parties(self, artifacts):
        report = _audit(artifacts)
        assert report.culprits() == ["Cross"]
        assert all(status.intact for status in report.submissions)
        cheat = [f for f in report.runs if f.culprits]
        assert len(cheat) == 1
        finding = cheat[0]
        assert finding.proposer == "Cross"
        assert sorted(finding.vetoes) == ["Nought", "Witness"]
        assert finding.exonerated == ["Nought", "Witness"]
        assert "signed vetoes prove the proposal was invalid" in finding.verdict
        assert "may not place" in finding.verdict

    def test_valid_runs_exonerate_everyone(self, artifacts):
        report = _audit(artifacts)
        valid = [f for f in report.runs if f.valid]
        assert valid  # the honest moves all reached unanimous agreement
        for finding in valid:
            assert finding.authentic and not finding.culprits
            assert finding.exonerated == sorted(PARTIES)

    def test_contention_veto_is_not_misbehaviour(self, artifacts):
        """Two honest proposers racing produces busy/invariant vetoes;
        the audit must not convict either of them."""
        report = _audit(artifacts)
        contended = [f for f in report.runs
                     if "benign contention" in f.verdict]
        assert contended  # seed 3 produces at least one proposer race
        for finding in contended:
            assert finding.vetoes and not finding.culprits
            assert finding.exonerated == sorted(PARTIES)

    def test_rulings_reverify_through_arbiter(self, artifacts):
        report = _audit(artifacts)
        by_outcome: "dict[str, int]" = {}
        for ruling in report.rulings:
            by_outcome[ruling.outcome] = by_outcome.get(ruling.outcome, 0) + 1
        # Honest moves upheld, the cheat's state-validity claim rejected.
        assert by_outcome.get("upheld", 0) >= 4
        assert by_outcome.get("rejected", 0) >= 1
        participation = [r for r in report.rulings
                         if "participated" in r.claim]
        assert participation and participation[0].outcome == "upheld"


class TestTraceCrossReference:
    def test_cheat_run_annotated_with_traced_vetoes(self, artifacts):
        merged = merge_trace_files(sorted(artifacts["trace_paths"].values()))
        report = _audit(artifacts, merged=merged)
        finding = next(f for f in report.runs if f.culprits)
        notes = "\n".join(finding.trace_notes)
        assert "causal events across ['Cross', 'Nought', 'Witness']" in notes
        assert "Nought vetoed" in notes and "Witness vetoed" in notes
        # Evidence and trace agree on who vetoed: no mismatch flagged.
        assert "MISMATCH" not in notes
        assert any("settled invalid" in note for note in finding.trace_notes)
        assert report.anomalies  # the vetoes at minimum

    def test_report_renders_conviction(self, artifacts):
        merged = merge_trace_files(sorted(artifacts["trace_paths"].values()))
        report = _audit(artifacts, merged=merged)
        text = report.render()
        assert "=== evidence audit ===" in text
        assert "log intact" in text
        assert "arbiter rulings:" in text
        assert "trace anomalies:" in text
        assert "MISBEHAVING PARTIES: ['Cross']" in text


class TestCorruptEvidence:
    def test_tampered_log_convicts_its_owner(self, artifacts, tmp_path):
        """A party that rewrites its own history breaks the hash chain;
        the audit records the corruption as a finding against it."""
        tampered_path = str(tmp_path / "evidence.jsonl")
        with open(artifacts["evidence"]["Witness"], encoding="utf-8") as src:
            lines = src.readlines()
        # The file holds the party's journal and checkpoints too: an
        # evidence line is one that carries an entry hash.
        second = [index for index, line in enumerate(lines)
                  if "entry_hash" in json.loads(line)][1]
        record = json.loads(lines[second])
        record["payload"]["run_id"] = "0" * 64  # rewrite one signed entry
        lines[second] = json.dumps(record, sort_keys=True) + "\n"
        with open(tampered_path, "w", encoding="utf-8") as dst:
            dst.writelines(lines)

        log = load_evidence_log("Witness", tampered_path)
        assert isinstance(log, CorruptEvidenceLog)
        logs = {name: load_evidence_log(name, path)
                for name, path in artifacts["evidence"].items()
                if name != "Witness"}
        logs["Witness"] = log
        report = _audit(artifacts, logs=logs)
        witness = next(s for s in report.submissions
                       if s.party_id == "Witness")
        assert not witness.intact and witness.error
        assert "Witness" in report.culprits()
        # Cross is still convicted from the other parties' copies.
        assert "Cross" in report.culprits()

    def test_missing_file_is_corrupt_not_crash(self, tmp_path):
        log = load_evidence_log("Ghost", str(tmp_path / "nope.jsonl"))
        # An empty store replays to an empty (intact) chain.
        assert log.verify_chain() == 0


class TestArbiterInstrumentation:
    def test_dispute_counters_and_latency(self, artifacts):
        obs = RecordingInstrumentation(collect=True)
        report = _audit(artifacts, obs=obs)
        registry = obs.registry
        assert registry.counter_value("dispute.submissions") == 3
        assert registry.counter_value("dispute.submissions.corrupt") == 0
        claims = registry.counter_value("dispute.claims_checked")
        assert claims == len(report.rulings)
        assert registry.histogram("dispute.claim_seconds").count == claims
        assert registry.counter_value("dispute.rulings.upheld") >= 4
        assert registry.counter_value("dispute.rulings.rejected") >= 1
        rulings = obs.collector.named("dispute.ruling")
        assert len(rulings) == claims
        kinds = {r.attrs["claim"] for r in rulings}
        assert "state-validity" in kinds and "participation" in kinds


class TestAuditCli:
    def _argv(self, artifacts, *extra):
        argv = ["audit", "--keys", artifacts["keys"]]
        for name, path in sorted(artifacts["evidence"].items()):
            argv += ["--log", f"{name}={path}"]
        for path in sorted(artifacts["trace_paths"].values()):
            argv += ["--trace", path]
        return argv + list(extra)

    def test_expected_culprit_convicted_exits_zero(self, artifacts, capsys,
                                                   tmp_path):
        merged_out = str(tmp_path / "merged.jsonl")
        code = main(self._argv(artifacts, "--merged-out", merged_out,
                               "--timeline", "--timeline-events", "4",
                               "--expect-culprit", "Cross"))
        out = capsys.readouterr().out
        assert code == 0
        assert "merged causal timeline" in out
        assert "MISBEHAVING PARTIES: ['Cross']" in out
        assert "expected culprit 'Cross' convicted" in out
        merged_records = [json.loads(line)
                          for line in open(merged_out, encoding="utf-8")]
        assert merged_records and all("lamport" in r for r in merged_records)

    def test_wrong_expected_culprit_exits_nonzero(self, artifacts, capsys):
        code = main(self._argv(artifacts, "--expect-culprit", "Witness"))
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED: expected culprit 'Witness'" in out

    def test_malformed_log_spec_rejected(self, artifacts, capsys):
        code = main(["audit", "--keys", artifacts["keys"],
                     "--log", "no-equals-sign"])
        assert code == 2
        assert "--log expects PARTY=PATH" in capsys.readouterr().out
