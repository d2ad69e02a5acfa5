"""Errors raised where a chunk is computed reach the caller unchanged.

An exception crosses a pool's process boundary by pickle, which rebuilds
it as ``cls(*args)`` unless the class says otherwise — and ``args``
holds only the formatted message.  Every exception class of ``repro``
with its own constructor must survive that trip with its type, message
and attributes, and a streamed detect that fails must fail with the same
type and message at every worker count.
"""

import csv
import gc
import gzip
import importlib
import inspect
import pickle
import pkgutil
import sqlite3

import pytest

import repro
from repro.core import EmbeddingSpec, Watermark
from repro.crypto import MarkKey
from repro.datagen import generate_item_scan, generate_sales
from repro.reliability import DISK_FULL, RetryPolicy
from repro.stream import (
    CSVChunkSink,
    CSVChunkSource,
    SQLiteChunkSource,
    shutdown_stream_pool,
    stream_mark,
    stream_verify,
)

#: constructor arguments for every exception class of ``repro`` that
#: defines its own ``__init__`` — a new such class needs an entry here
SAMPLES = {
    "repro.relational.errors.UnknownAttributeError": [
        ("Dept", ("Scan_Id", "Item_Nbr")), ("Dept",),
    ],
    "repro.relational.errors.DuplicateKeyError": [(100,), ("0100",)],
    "repro.relational.errors.MissingKeyError": [(7,)],
    "repro.relational.errors.DomainError": [
        ("ST999", "Store_Nbr"), ("ST999",),
    ],
    "repro.relational.errors.TypeMismatchError": [
        ("abc", "integer", "Visit_Nbr"), (1.5, "string"),
    ],
    "repro.stream.errors.CheckpointCorruptError": [
        ("run.ckpt", "crc mismatch", 17),
    ],
    "repro.stream.errors.BadRowError": [
        ("sales.csv", 12, "CSV row 12 has 4 fields, schema has 5"),
    ],
    "repro.reliability.deadline.DeadlineExceededError": [
        ("pipeline.chunk", 3, 1.5, 2.25),
    ],
    "repro.reliability.faults.InjectedFaultError": [
        ("pool.worker", 3), ("sink.write", 0, DISK_FULL, 28),
    ],
    "repro.reliability.integrity.IntegrityError": [
        ("out.csv.gz", "digest mismatch", 2), ("out.journal", "missing"),
    ],
    "repro.reliability.integrity.RunLockedError": [
        ("out.csv.gz", 4242), ("out.csv.gz",),
    ],
    "repro.reliability.retry.RetryError": [("source.read", 3)],
}


def _exception_classes_with_init():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, BaseException)
                and cls.__module__ == module.__name__
                and "__init__" in vars(cls)
            ):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


CLASSES = _exception_classes_with_init()


def test_every_exception_class_with_a_constructor_has_samples():
    assert sorted(CLASSES) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_exception_survives_pickle(name):
    for args in SAMPLES[name]:
        original = CLASSES[name](*args)
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is type(original)
        assert str(copy) == str(original)
        assert copy.args == original.args
        assert vars(copy) == vars(original)
        if isinstance(original, OSError):
            assert (copy.errno, copy.strerror) == (
                original.errno, original.strerror
            )


# -- pooled detect: the same error at every worker count ---------------------

@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_stream_pool()


KEY = MarkKey.from_seed("worker-errors")
WATERMARK = Watermark.from_int(0x2AB, 10)


def _failure(source, spec, domain, workers):
    with pytest.raises(Exception) as excinfo:
        stream_verify(
            source, KEY, spec, WATERMARK, domain=domain, workers=workers
        )
    return type(excinfo.value), str(excinfo.value)


def _sales_gzip(path, edit):
    """A 1,200-row Sales gzip CSV whose cell texts pass through
    ``edit(scan_id, cells)``."""
    table = generate_sales(1_200, item_count=60, seed=5)
    with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        for row in table:
            cells = [str(value) for value in row]
            edit(row[0], cells)
            writer.writerow(cells)
    return table.schema


def _assert_same_failure(source_for, spec, domain, expected_type, message):
    serial = _failure(source_for(), spec, domain, None)
    assert serial == (expected_type, message)
    assert _failure(source_for(), spec, domain, 2) == serial


def _scan_sqlite_with_text_key(tmp_path):
    """A 1,200-row item-scan SQLite file whose row 701 holds ``'abc'`` in
    the integer key: the chunk build of rows 601–900 raises."""
    table = generate_item_scan(1_200, item_count=40, seed=3)
    path = tmp_path / "scan.sqlite"
    connection = sqlite3.connect(path)
    names = ", ".join(f'"{name}"' for name in table.schema.names)
    connection.execute(f"CREATE TABLE relation ({names})")
    rows = [list(row) for row in table]
    rows[700][0] = "abc"
    placeholders = ", ".join("?" * table.schema.arity)
    connection.executemany(
        f"INSERT INTO relation VALUES ({placeholders})", rows
    )
    connection.commit()
    connection.close()
    return path, table.schema


SCAN_SPEC = EmbeddingSpec("Visit_Nbr", "Item_Nbr", 40, 10, 60)


def test_type_mismatch_in_a_worker_keeps_its_type(tmp_path):
    """SQLite keeps text in an untyped column: the chunk table refuses
    it, and on a pool that error used to break the pool."""
    from repro.relational import TypeMismatchError

    path, schema = _scan_sqlite_with_text_key(tmp_path)
    _assert_same_failure(
        lambda: SQLiteChunkSource(path, schema, chunk_size=300),
        SCAN_SPEC, None, TypeMismatchError,
        "value 'abc' does not match declared type integer for attribute "
        "'Visit_Nbr'",
    )


class _ClosingSQLiteSource(SQLiteChunkSource):
    """A SQLite source whose reader records that it has closed."""

    closed = False

    def payloads(self, start=0):
        try:
            yield from super().payloads(start)
        finally:
            self.closed = True


@pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["fail-fast", "retry"])
@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("direction", ["verify", "mark"])
def test_a_failed_run_closes_its_reader_at_the_raise(
    tmp_path, direction, workers, retry
):
    """A run that raises closes the source's reader before the raise
    reaches the caller — not later, in a garbage-collector finalizer on
    whichever thread it runs, where SQLite refuses to close a connection
    another thread opened."""
    from repro.relational import TypeMismatchError

    path, schema = _scan_sqlite_with_text_key(tmp_path)
    source = _ClosingSQLiteSource(path, schema, chunk_size=300)
    gc.disable()  # only the run itself may close the reader
    try:
        # The live ``excinfo`` holds the traceback, and with it every
        # frame the error passed through, as a caller handling it would.
        with pytest.raises(TypeMismatchError) as excinfo:  # noqa: F841
            if direction == "verify":
                stream_verify(
                    source, KEY, SCAN_SPEC, WATERMARK,
                    workers=workers, retry=retry,
                )
            else:
                stream_mark(
                    source, WATERMARK, KEY, SCAN_SPEC,
                    CSVChunkSink(tmp_path / "marked.csv"),
                    workers=workers, retry=retry,
                )
        assert source.closed
    finally:
        gc.enable()


def test_duplicate_key_in_a_worker_keeps_its_key(tmp_path):
    from repro.relational import DuplicateKeyError

    def repeat_100(scan_id, cells):
        if scan_id == 900:
            cells[0] = "0100"

    path = tmp_path / "sales.csv.gz"
    schema = _sales_gzip(path, repeat_100)
    spec = EmbeddingSpec("Scan_Id", "Item_Nbr", 40, 10, 60)
    domain = schema.attribute("Item_Nbr").domain
    _assert_same_failure(
        lambda: CSVChunkSource(
            path, schema, chunk_size=1_000, infer_domains=True
        ),
        spec, domain, DuplicateKeyError, "duplicate primary key value: 100",
    )


def test_domain_error_in_a_worker_keeps_its_message(tmp_path):
    from repro.relational import DomainError

    def foreign_store(scan_id, cells):
        if scan_id == 650:
            cells[2] = "ST999"

    path = tmp_path / "sales.csv.gz"
    schema = _sales_gzip(path, foreign_store)
    spec = EmbeddingSpec("Scan_Id", "Item_Nbr", 40, 10, 60)
    _assert_same_failure(
        lambda: CSVChunkSource(path, schema, chunk_size=300),
        spec, None, DomainError,
        "value 'ST999' is outside the categorical domain for attribute "
        "'Store_Nbr'",
    )
