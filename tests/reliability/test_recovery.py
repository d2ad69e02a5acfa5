"""End-to-end recovery tests: injected faults -> byte-identical output.

Every scenario asserts two things at once: the run *survives* the
injected fault (bounded retry, rollback, reopen) and the recovered
output is identical to a fault-free run — recovery that changes the
result is corruption with extra steps.
"""

import csv

import pytest

from repro import MarkKey, Watermark, cli
from repro.core import EmbeddingSpec
from repro.datagen import generate_item_scan
from repro.relational import write_csv
from repro.reliability import (
    CORRUPT_JSON,
    FaultPlan,
    IO_ERROR,
    RetryError,
    RetryPolicy,
    TORN_WRITE,
)
from repro.stream import (
    BadRowError,
    CSVChunkSource,
    CheckpointCorruptError,
    SQLiteChunkSource,
    TableChunkSource,
    load_checkpoint,
    load_verified_checkpoint,
    open_sink,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)

E = 40
CHANNEL = 120
CHUNK = 300
ROWS = 1200

FAST = RetryPolicy(max_attempts=4, base_delay=0.0)


@pytest.fixture(scope="module")
def base():
    return generate_item_scan(ROWS, item_count=80, seed=13)


@pytest.fixture(scope="module")
def key():
    return MarkKey.from_seed("recovery")


@pytest.fixture(scope="module")
def wm():
    return Watermark.from_int(0x2AB, 10)


@pytest.fixture(scope="module")
def spec():
    return EmbeddingSpec("Visit_Nbr", "Item_Nbr", E, 10, CHANNEL)


def _mark(base, wm, key, spec, out, *, plan=None, retry=None,
          checkpoint=None, resume=False):
    source = TableChunkSource(base, chunk_size=CHUNK)
    sink = open_sink(out)
    if plan is not None:
        with plan.armed():
            return stream_mark(
                source, wm, key, spec, sink, retry=retry,
                checkpoint_path=checkpoint, resume=resume,
            )
    return stream_mark(
        source, wm, key, spec, sink, retry=retry,
        checkpoint_path=checkpoint, resume=resume,
    )


@pytest.fixture(scope="module")
def reference_bytes(base, key, wm, spec, tmp_path_factory):
    """Fault-free streamed outputs to pin every recovery against."""
    root = tmp_path_factory.mktemp("reference")
    payload = {}
    for name in ("ref.csv", "ref.csv.gz"):
        path = root / name
        _mark(base, wm, key, spec, path)
        payload[name.split(".", 1)[1]] = path.read_bytes()
    return payload


class TestSinkRecovery:
    @pytest.mark.parametrize("suffix", ["csv", "csv.gz"])
    def test_torn_write_rolled_back_and_rewritten(
        self, base, key, wm, spec, reference_bytes, tmp_path, suffix
    ):
        out = tmp_path / f"out.{suffix}"
        plan = FaultPlan().add("sink.write.mid", TORN_WRITE, at=1)
        result = _mark(base, wm, key, spec, out, plan=plan, retry=FAST)
        assert plan.pending() == 0
        assert out.read_bytes() == reference_bytes[suffix]
        assert result.reliability.retries["sink.write"] == 1
        assert result.reliability.sink_rollbacks == 1

    def test_boundary_io_error_retried(
        self, base, key, wm, spec, reference_bytes, tmp_path
    ):
        out = tmp_path / "out.csv"
        plan = FaultPlan().add("sink.write", IO_ERROR, at=2)
        result = _mark(base, wm, key, spec, out, plan=plan, retry=FAST)
        assert out.read_bytes() == reference_bytes["csv"]
        assert result.reliability.total_retries == 1

    def test_exhausted_retries_raise_retry_error(
        self, base, key, wm, spec, tmp_path
    ):
        out = tmp_path / "out.csv"
        plan = FaultPlan().add("sink.write", IO_ERROR, at=0, times=10)
        with pytest.raises(RetryError) as excinfo:
            _mark(base, wm, key, spec, out, plan=plan, retry=FAST)
        assert excinfo.value.label == "sink.write"
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_without_policy_faults_propagate(self, base, key, wm, spec, tmp_path):
        plan = FaultPlan().add("sink.write", IO_ERROR, at=0)
        with pytest.raises(OSError):
            _mark(base, wm, key, spec, tmp_path / "out.csv", plan=plan)


class TestSourceRecovery:
    def test_read_failure_reopens_at_failed_chunk(
        self, base, key, wm, spec, reference_bytes, tmp_path
    ):
        csv_in = tmp_path / "in.csv"
        write_csv(base, csv_in)
        source = CSVChunkSource(csv_in, base.schema, chunk_size=CHUNK)
        out = tmp_path / "out.csv"
        plan = FaultPlan().add("source.read", IO_ERROR, at=2)
        with plan.armed():
            result = stream_mark(
                source, wm, key, spec, open_sink(out), retry=FAST
            )
        assert out.read_bytes() == reference_bytes["csv"]
        assert result.reliability.source_reopens == 1
        assert result.reliability.retries["source.read"] == 1

    def test_streamed_detection_survives_read_faults(
        self, base, key, wm, spec, tmp_path
    ):
        out = tmp_path / "marked.csv"
        _mark(base, wm, key, spec, out)
        clean = stream_verify(
            CSVChunkSource(out, base.schema, chunk_size=CHUNK), key, spec, wm
        )
        plan = FaultPlan().add("source.read", IO_ERROR, at=1, times=2)
        with plan.armed():
            recovered = stream_verify(
                CSVChunkSource(out, base.schema, chunk_size=CHUNK),
                key, spec, wm, retry=FAST,
            )
        assert recovered.detected and clean.detected
        assert recovered.verification.matching_bits == \
            clean.verification.matching_bits
        assert recovered.votes == clean.votes
        assert recovered.reliability.source_reopens == 2

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sqlite_read_fault_reopens_at_failed_chunk(
        self, base, key, wm, spec, tmp_path, workers
    ):
        db = tmp_path / "marked.sqlite"
        _mark(base, wm, key, spec, db)
        clean = stream_verify(
            SQLiteChunkSource(db, base.schema, chunk_size=CHUNK),
            key, spec, wm,
        )
        plan = FaultPlan().add("source.read", IO_ERROR, at=1)
        try:
            with plan.armed():
                recovered = stream_verify(
                    SQLiteChunkSource(db, base.schema, chunk_size=CHUNK),
                    key, spec, wm, retry=FAST, workers=workers,
                )
        finally:
            shutdown_stream_pool()
        assert plan.fired == [("source.read", 1, IO_ERROR)]
        assert recovered.reliability.source_reopens == 1
        assert recovered.detected and clean.detected
        assert recovered.verification.matching_bits == \
            clean.verification.matching_bits
        assert recovered.votes == clean.votes


class TestCheckpointRecovery:
    def test_corrupt_json_fault_is_caught_by_crc(
        self, base, key, wm, spec, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("checkpoint.save", CORRUPT_JSON, at=4)
        _mark(base, wm, key, spec, out, plan=plan, checkpoint=ckpt)
        with pytest.raises(CheckpointCorruptError, match="crc mismatch"):
            load_checkpoint(ckpt)

    def test_resume_rolls_back_to_verified_prev(
        self, base, key, wm, spec, reference_bytes, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        # The *final* checkpoint lands bit-rotted; the .prev record (3
        # chunks done) passes verification.
        plan = FaultPlan().add("checkpoint.save", CORRUPT_JSON, at=4)
        _mark(base, wm, key, spec, out, plan=plan, checkpoint=ckpt)
        loaded, rolled_back = load_verified_checkpoint(ckpt)
        assert rolled_back and loaded.chunks_done == 3
        result = _mark(
            base, wm, key, spec, out, checkpoint=ckpt, resume=True
        )
        assert result.resumed_at_chunk == 3
        assert result.reliability.checkpoint_rollbacks == 1
        assert out.read_bytes() == reference_bytes["csv"]

    def test_torn_checkpoint_write_also_rolls_back(
        self, base, key, wm, spec, reference_bytes, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("checkpoint.save", TORN_WRITE, at=4)
        _mark(base, wm, key, spec, out, plan=plan, checkpoint=ckpt)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(ckpt)
        result = _mark(base, wm, key, spec, out, checkpoint=ckpt, resume=True)
        assert result.reliability.checkpoint_rollbacks == 1
        assert out.read_bytes() == reference_bytes["csv"]

    def test_corruption_with_no_fallback_raises(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_verified_checkpoint(ckpt)
        assert excinfo.value.path == str(ckpt)

    def test_save_retry_under_io_error(
        self, base, key, wm, spec, reference_bytes, tmp_path
    ):
        out, ckpt = tmp_path / "out.csv", tmp_path / "run.ckpt"
        plan = FaultPlan().add("checkpoint.save", IO_ERROR, at=2)
        result = _mark(
            base, wm, key, spec, out, plan=plan, retry=FAST, checkpoint=ckpt
        )
        assert result.reliability.retries["checkpoint.save"] == 1
        assert out.read_bytes() == reference_bytes["csv"]
        assert load_checkpoint(ckpt).chunks_done == 4


class TestBadRowPolicies:
    @pytest.fixture
    def dirty_csv(self, tiny_schema, tmp_path):
        path = tmp_path / "dirty.csv"
        rows = [
            ["K", "A", "B"],
            ["1", "red", "x"],
            ["2", "green"],            # arity: torn line
            ["3", "blue", "z"],
            ["oops", "red", "x"],      # typed: non-integer key
            ["5", "cyan", "w"],
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        return path

    def test_raise_is_the_default_and_names_the_row(
        self, dirty_csv, tiny_schema
    ):
        source = CSVChunkSource(dirty_csv, tiny_schema, chunk_size=2)
        with pytest.raises(BadRowError, match="bad CSV row 2") as excinfo:
            list(source.chunks())
        assert excinfo.value.number == 2
        # stays a ValueError for the historical parse_row contract
        assert isinstance(excinfo.value, ValueError)

    def test_skip_drops_and_counts(self, dirty_csv, tiny_schema):
        source = CSVChunkSource(
            dirty_csv, tiny_schema, chunk_size=2, on_bad_rows="skip"
        )
        rows = [row for chunk in source.chunks() for row in chunk]
        assert [row[0] for row in rows] == [1, 3, 5]
        assert source.bad_row_count == 2
        assert source.quarantined_rows == 0
        assert not source.quarantine_path.exists()

    def test_quarantine_writes_sidecar_with_row_numbers(
        self, dirty_csv, tiny_schema
    ):
        source = CSVChunkSource(
            dirty_csv, tiny_schema, chunk_size=2, on_bad_rows="quarantine"
        )
        rows = [row for chunk in source.chunks() for row in chunk]
        assert [row[0] for row in rows] == [1, 3, 5]
        assert source.quarantined_rows == 2
        sidecar = source.quarantine_path
        assert sidecar == dirty_csv.with_name("dirty.csv.quarantine.csv")
        with open(sidecar, newline="", encoding="utf-8") as handle:
            records = list(csv.reader(handle))
        assert records[0][:2] == ["row_number", "error"]
        assert [record[0] for record in records[1:]] == ["2", "4"]
        assert records[2][2:] == ["oops", "red", "x"]

    def test_resume_boundaries_count_surviving_rows(
        self, dirty_csv, tiny_schema
    ):
        full = [
            row for chunk in CSVChunkSource(
                dirty_csv, tiny_schema, chunk_size=2, on_bad_rows="skip"
            ).chunks()
            for row in chunk
        ]
        resumed = [
            row for chunk in CSVChunkSource(
                dirty_csv, tiny_schema, chunk_size=2, on_bad_rows="skip"
            ).chunks(start=1)
            for row in chunk
        ]
        assert resumed == full[2:]

    def test_bad_policy_rejected(self, dirty_csv, tiny_schema):
        with pytest.raises(Exception, match="on_bad_rows"):
            CSVChunkSource(dirty_csv, tiny_schema, on_bad_rows="ignore")


class TestCliExitCodes:
    def _embed_args(self, tmp_path, base, extra=()):
        from repro.relational import schema_to_json

        data = tmp_path / "in.csv"
        write_csv(base, data)
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(base.schema), encoding="utf-8")
        keyfile = tmp_path / "key.json"
        assert cli.main(["genkey", "--out", str(keyfile), "--seed", "s"]) == 0
        return [
            "embed", "--input", str(data), "--output",
            str(tmp_path / "marked.csv"), "--schema", str(schema),
            "--key", str(keyfile), "--attribute", "Item_Nbr",
            "--watermark", "bits:1010101011", "--e", str(E),
            "--chunk-size", str(CHUNK),
            "--record", str(tmp_path / "record.json"),
            *extra,
        ]

    def test_corrupt_checkpoint_exits_4(self, base, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        args = self._embed_args(
            tmp_path, base, ("--checkpoint", str(ckpt)),
        )
        assert cli.main(args) == 0
        ckpt.write_text('{"zapped": true}', encoding="utf-8")
        prev = ckpt.with_name(ckpt.name + ".prev")
        prev.unlink()
        assert cli.main(args + ["--resume"]) == cli.EXIT_CHECKPOINT_CORRUPT
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_retry_exhaustion_exits_5(self, base, tmp_path, capsys):
        args = self._embed_args(tmp_path, base, ("--retries", "1"))
        plan = FaultPlan().add("source.read", IO_ERROR, at=0, times=10)
        with plan.armed():
            assert cli.main(args) == cli.EXIT_RETRY_EXHAUSTED
        assert "still failing" in capsys.readouterr().err

    def test_bad_rows_exit_6_and_skip_policy_continues(
        self, base, tmp_path, capsys
    ):
        args = self._embed_args(tmp_path, base)
        data = tmp_path / "in.csv"
        with open(data, "a", newline="", encoding="utf-8") as handle:
            handle.write("torn,line\n")
        assert cli.main(args) == cli.EXIT_BAD_ROWS
        assert "--on-bad-rows" in capsys.readouterr().err
        assert cli.main(args + ["--on-bad-rows", "skip"]) == 0
        out = capsys.readouterr().out
        assert "1 bad rows" in out

    def test_recovered_run_prints_reliability_summary(
        self, base, tmp_path, capsys
    ):
        args = self._embed_args(tmp_path, base, ("--retries", "3"))
        plan = FaultPlan().add("source.read", IO_ERROR, at=1)
        with plan.armed():
            assert cli.main(args) == 0
        assert "source reopens" in capsys.readouterr().out
