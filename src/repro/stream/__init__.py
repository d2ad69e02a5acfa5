"""Out-of-core streaming subsystem: chunked mark/detect over on-disk
relations.

The scheme's per-tuple decisions are pure functions of a keyed hash of
the tuple's key value, so marking and detection chunk perfectly:

* **sources** — :class:`ChunkSource` readers (CSV incl. gzip, SQLite,
  ``datagen``-backed synthetic streams) yield schema-typed
  :class:`~repro.relational.Table` chunks;
* **pipelines** — :func:`stream_mark` maps chunks through the existing
  embed kernels into a :class:`ChunkSink` (checkpointed, resumable);
  :func:`stream_verify` / :func:`stream_verify_multipass` merge per-chunk
  vote tallies in O(chunk + channel) memory, bit-identical to the
  in-memory detector on the concatenated rows;
* **the ordered run** — one chunk loop serves every entry point: in
  process by default, and with ``workers=N`` (or ``"auto"``) across a
  persistent process pool with the same ordered, bit-identical
  merge/commit (see :mod:`repro.stream.parallel`).

Opens the million-row / on-disk workload class the in-memory
:class:`~repro.relational.Table` paths cap out on.
"""

from .checkpoint import (
    MarkCheckpoint,
    load_checkpoint,
    load_verified_checkpoint,
    mark_fingerprint,
    save_checkpoint,
)
from .errors import (
    BadRowError,
    CheckpointCorruptError,
    CheckpointError,
    StreamError,
)
from .parallel import (
    AUTO_WORKERS,
    ParallelReport,
    resolve_workers,
    shutdown_stream_pool,
    stream_engine,
)
from .pipeline import (
    StreamDetection,
    StreamMarkResult,
    StreamVerification,
    stream_detect,
    stream_mark,
    stream_verify,
    stream_verify_multipass,
)
from .sinks import (
    ChunkSink,
    CSVChunkSink,
    NullChunkSink,
    SQLiteChunkSink,
    TableChunkSink,
    open_sink,
)
from .sources import (
    DEFAULT_CHUNK_SIZE,
    ChunkSource,
    ChunkTask,
    CSVChunkSource,
    MultiFileChunkSource,
    SQLiteChunkSource,
    SyntheticChunkSource,
    TableChunkSource,
    count_data_rows,
    item_scan_source,
    open_source,
    open_sources,
    payload_chunks,
)

__all__ = [
    "AUTO_WORKERS",
    "BadRowError",
    "CSVChunkSink",
    "CSVChunkSource",
    "CheckpointCorruptError",
    "CheckpointError",
    "ChunkSink",
    "ChunkSource",
    "ChunkTask",
    "DEFAULT_CHUNK_SIZE",
    "MarkCheckpoint",
    "MultiFileChunkSource",
    "NullChunkSink",
    "ParallelReport",
    "SQLiteChunkSink",
    "SQLiteChunkSource",
    "StreamDetection",
    "StreamError",
    "StreamMarkResult",
    "StreamVerification",
    "SyntheticChunkSource",
    "TableChunkSink",
    "TableChunkSource",
    "count_data_rows",
    "item_scan_source",
    "load_checkpoint",
    "load_verified_checkpoint",
    "mark_fingerprint",
    "open_sink",
    "open_source",
    "open_sources",
    "payload_chunks",
    "resolve_workers",
    "save_checkpoint",
    "shutdown_stream_pool",
    "stream_detect",
    "stream_engine",
    "stream_mark",
    "stream_verify",
    "stream_verify_multipass",
]
