"""Tests for the HMAC-chained audit log: chaining, tamper detection,
rollback recovery, rollover, persistence, and the CLI verb."""

import json
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.core.auditlog import (
    AuditLog,
    AuditRecord,
    ROLLOVER_KIND,
    SNAPSHOT_KIND,
    derive_key,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def build_log(path=None, key_seed="test-seed"):
    log = AuditLog(key_seed=key_seed, path=path, clock=FakeClock())
    log.append("run_start", n=12, seed=7)
    log.append("expel_vote", voter=1, target=9, score=-3.5)
    log.snapshot({"expelled": [9], "delivery_ratio": 0.91})
    log.append("expulsion", manager=1, target=9, reason="score")
    return log


class TestChaining:
    def test_clean_chain_verifies(self):
        log = build_log()
        report = log.verify_all()
        assert report.ok
        assert report.length == 4
        assert report.valid_prefix == 4
        assert report.first_bad_seq is None
        assert "chain ok: 4 records" in report.summary()

    def test_tags_are_key_and_content_deterministic(self):
        assert [r.tag for r in build_log().records] == [
            r.tag for r in build_log().records
        ]
        different_key = build_log(key_seed="other-seed")
        assert build_log().records[0].tag != different_key.records[0].tag

    def test_empty_chain_is_ok(self):
        log = AuditLog(key_seed="x", clock=FakeClock())
        assert log.verify_all().ok
        assert log.verify_all().length == 0

    def test_derive_key_is_stable(self):
        assert derive_key("a") == derive_key("a")
        assert derive_key("a") != derive_key("b")
        assert len(derive_key("a")) == 32


class TestTamperDetection:
    def test_mutated_data_breaks_chain_from_that_point(self):
        log = build_log()
        forged = replace(log.records[1], data={"voter": 1, "target": 4, "score": -3.5})
        log.records[1] = forged
        report = log.verify_all()
        assert not report.ok
        assert report.valid_prefix == 1
        assert report.first_bad_seq == 1
        assert "TAMPERED" in report.summary()

    def test_forged_tag_detected(self):
        log = build_log()
        log.records[3] = replace(log.records[3], tag="ab" * 32)
        report = log.verify_all()
        assert not report.ok
        assert report.valid_prefix == 3

    def test_deleted_record_detected(self):
        log = build_log()
        del log.records[1]  # seqs now skip: 0, 2, 3
        assert not log.verify_all().ok

    def test_truncation_of_head_detected(self):
        # Dropping the *first* record re-anchors the chain off-genesis.
        log = build_log()
        del log.records[0]
        report = log.verify_all()
        assert not report.ok
        assert report.valid_prefix == 0


class TestRollback:
    def test_rollback_on_clean_chain_is_noop(self):
        log = build_log()
        report = log.rollback()
        assert not report.recovered
        assert report.kept == 4
        assert report.dropped == 0
        assert "nothing to recover" in report.summary()

    def test_rollback_to_last_snapshot(self):
        log = build_log()
        log.append("expulsion", manager=2, target=9, reason="audit")
        log.records[4] = replace(log.records[4], tag="00" * 32)
        report = log.rollback()
        assert report.recovered
        assert report.kept == 3  # up to and including the snapshot
        assert report.dropped == 2
        assert report.snapshot == {"expelled": [9], "delivery_ratio": 0.91}
        assert log.records[-1].kind == SNAPSHOT_KIND
        assert log.verify_all().ok

    def test_rollback_without_snapshot_keeps_valid_prefix(self):
        log = AuditLog(key_seed="x", clock=FakeClock())
        log.append("a", v=1)
        log.append("b", v=2)
        log.records[1] = replace(log.records[1], tag="00" * 32)
        report = log.rollback()
        assert report.recovered
        assert report.kept == 1
        assert report.snapshot is None
        assert log.verify_all().ok

    def test_appends_continue_after_rollback(self):
        log = build_log()
        log.records[3] = replace(log.records[3], tag="00" * 32)
        log.rollback()
        log.append("expulsion", manager=2, target=9, reason="score")
        assert log.verify_all().ok


class TestRollover:
    def test_archive_verifies_standalone_and_seal_links(self, tmp_path):
        archive = tmp_path / "segment-0.jsonl"
        log = build_log()
        head = log.records[-1].tag
        archived_count, seal = log.rollover(str(archive))
        assert archived_count == 4
        assert seal.kind == ROLLOVER_KIND
        assert seal.data == {"prev_head": head, "archived": 4}
        assert log.verify_all().ok  # new segment verifies from genesis
        old = AuditLog.load(str(archive), key_seed="test-seed")
        assert old.verify_all().ok  # so does the archived one


class TestPersistence:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = build_log(path=str(path))
        log.close()
        loaded = AuditLog.load(str(path), key_seed="test-seed")
        assert loaded.records == log.records
        assert loaded.verify_all().ok

    def test_blank_line_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = build_log(path=str(path))
        log.close()
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", "   "] + lines[2:]) + "\n")
        loaded = AuditLog.load(str(path), key_seed="test-seed")
        assert loaded.records == log.records
        assert loaded.verify_all().ok

    def test_wrong_key_fails_verification(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        build_log(path=str(path)).close()
        loaded = AuditLog.load(str(path), key_seed="not-the-key")
        assert not loaded.verify_all().ok

    def test_flipped_byte_on_disk_detected_and_recovered(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        build_log(path=str(path)).close()
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["data"]["target"] = 5  # the flipped byte
        lines[3] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        loaded = AuditLog.load(str(path), key_seed="test-seed")
        report = loaded.verify_all()
        assert not report.ok
        assert report.first_bad_seq == 3

        rollback = loaded.rollback()
        assert rollback.recovered
        assert rollback.snapshot is not None
        loaded.close()
        # The mirror was rewritten: a fresh load now verifies.
        assert AuditLog.load(str(path), key_seed="test-seed").verify_all().ok


class TestCliAuditVerify:
    def test_clean_chain_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        build_log(path=str(path)).close()
        code = cli_main(["audit-verify", str(path), "--key-seed", "test-seed"])
        assert code == 0
        assert "chain ok" in capsys.readouterr().out

    def test_tampered_chain_exits_one(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        build_log(path=str(path)).close()
        text = path.read_text()
        path.write_text(text.replace('"target":9', '"target":5', 1))
        code = cli_main(["audit-verify", str(path), "--key-seed", "test-seed"])
        assert code == 1
        assert "TAMPERED" in capsys.readouterr().out

    def test_recover_flag_rolls_back_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        build_log(path=str(path)).close()
        text = path.read_text()
        path.write_text(text.replace('"reason":"score"', '"reason":"xxxxx"', 1))
        code = cli_main(
            ["audit-verify", str(path), "--key-seed", "test-seed", "--recover"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered" in out
        assert AuditLog.load(str(path), key_seed="test-seed").verify_all().ok

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli_main(["audit-verify", str(tmp_path / "absent.jsonl")])
        assert code == 2
