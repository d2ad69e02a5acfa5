"""Command-line interface: the owner's workflow over CSV files.

Subcommands mirror the lifecycle::

    repro-wm genkey  --out key.json
    repro-wm embed   --data sales.csv --schema schema.json --key key.json \\
                     --attribute Item_Nbr --watermark "(c) ACME" --e 60 \\
                     --out marked.csv --record record.json
    repro-wm detect  --data suspect.csv --schema schema.json --key key.json \\
                     --record record.json [--remap-recovery]
    repro-wm inspect --data sales.csv --schema schema.json [--attribute A]

For relations too large to hold in memory, ``embed`` (alias ``mark``) and
``detect`` also run as bounded-memory streaming pipelines over CSV
(plain or gzip) and SQLite files::

    repro-wm mark    --input sales.csv.gz --output marked.csv.gz \\
                     --chunk-size 65536 --schema schema.json --key key.json \\
                     --attribute Item_Nbr --watermark "(c) ACME" --e 60 \\
                     --record record.json [--checkpoint run.ckpt [--resume]]
    repro-wm detect  --input suspect.csv.gz --chunk-size 65536 \\
                     --schema schema.json --key key.json --record record.json

``--input`` selects file mode (``--data`` loads in memory); the marked
output is cell-identical either way, and streamed detection is
bit-identical to the in-memory verdict.  ``--checkpoint`` makes the
embed resumable after interruption (``--resume`` picks it back up).
Streaming mode requires the schema JSON to declare the mark attribute's
full domain and serves the association channel only.

File-mode runs scale across cores with ``--workers N`` (or ``--workers
auto``): chunk decode + kernel work fan out over a process pool while an
ordered merge/commit keeps the output bytes and the detection verdict
bit-identical to a single-core run.  ``--input`` may be repeated to scan
several files as one relation (detection accumulators merge across
files).

plus the experiment harness (previously Python-API-only)::

    repro-wm sweep   --data sales.csv --schema schema.json \\
                     --attribute Item_Nbr --e 65 --attack alteration \\
                     --xs 0.2,0.4,0.6 --passes 15 \\
                     --backend vector --mode hoisted [--json out.json]
    repro-wm figure  --figure 4 --tuples 6000 --items 500 --passes 15 \\
                     --backend vector --mode auto [--json out.json]

``--backend`` selects the (bit-identical) execution backend of every
pass's embed/verify — ``vector`` (default) or the ``scalar`` reference;
``--mode`` the sweep engine's execution mode
(``serial`` re-embeds per cell — the reference cost model).

Checkpointed embeds journal a chunk-hash manifest next to the
checkpoint; ``repro-wm audit --output marked.csv --checkpoint run.ckpt``
later verifies the output byte-for-byte against it, localizing any
corruption to the exact chunk.  ``--resume --verify-resume`` re-hashes
the surviving prefix before continuing, and ``--lock`` holds a lease so
two concurrent resumes of the same run cannot interleave.

``detect`` exits 0 when the watermark is detected and 3 when it is not, so
the tool composes into shell pipelines.  Failures carry their own codes:
4 for a corrupt checkpoint with no verified rollback target, 5 when
``--retries`` was exhausted by persistent transient I/O failures, 6
when a malformed CSV row aborted the run under ``--on-bad-rows raise``,
7 when a ``--deadline`` budget expired (the run stops at a resumable
chunk boundary — re-run with ``--resume`` and a fresh budget), and 8 for
an integrity violation (``audit`` found corrupt chunks, a verified read
hit rotted source data, or another live process holds the run lease).
File-mode runs accept ``--retries N`` (crash-safe retry with
deterministic backoff), ``--on-bad-rows {raise,skip,quarantine}`` and
``--deadline SECONDS`` (cooperative wall-clock stall-safety).
Schemas are JSON documents in the :func:`repro.relational.schema_to_json`
format.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from pathlib import Path

from . import MarkKey, Watermark, Watermarker
from .core import MarkRecord
from .quality import MaxAlterationFraction, measure_distortion
from .relational import (
    Table,
    frequency_histogram,
    read_csv,
    schema_from_json,
    schema_to_json,
    sorted_frequency_profile,
    write_csv,
)

#: exit code for "ran fine, watermark not detected"
EXIT_NOT_DETECTED = 3

#: a checkpoint failed CRC/schema verification and no verified rollback
#: target survived — the run must not silently restart from scratch
EXIT_CHECKPOINT_CORRUPT = 4

#: a transient I/O failure outlived the retry budget (``--retries``)
EXIT_RETRY_EXHAUSTED = 5

#: a malformed CSV row aborted the run (``--on-bad-rows raise``)
EXIT_BAD_ROWS = 6

#: the run outlived its ``--deadline`` wall-clock budget and stopped at a
#: resumable boundary (re-run with --checkpoint/--resume and a fresh
#: budget to continue)
EXIT_DEADLINE_EXCEEDED = 7

#: an integrity violation: `repro-wm audit` found chunks whose bytes no
#: longer match the journalled manifest, a verified read hit a rotted
#: source chunk, or another live process holds the run lease
EXIT_INTEGRITY = 8


def _load_schema(path: str):
    return schema_from_json(Path(path).read_text(encoding="utf-8"))


def _load_key(path: str) -> MarkKey:
    return MarkKey.from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def _load_table(data_path: str, schema_path: str) -> Table:
    return read_csv(data_path, _load_schema(schema_path))


def _parse_watermark(text: str) -> Watermark:
    """Accept ``bits:1011``, ``hex:AC5`` or plain text payloads."""
    if text.startswith("bits:"):
        return Watermark(int(bit) for bit in text[5:])
    if text.startswith("hex:"):
        return Watermark.from_hex(text[4:])
    return Watermark.from_text(text)


# -- subcommands --------------------------------------------------------------

def cmd_genkey(args: argparse.Namespace) -> int:
    key = (
        MarkKey.from_seed(args.seed) if args.seed is not None
        else MarkKey.generate()
    )
    Path(args.out).write_text(
        json.dumps(key.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote secret key pair to {args.out} — escrow it safely")
    return 0


def _require_one_input(args: argparse.Namespace) -> None:
    if (args.data is None) == (getattr(args, "input", None) is None):
        raise SystemExit(
            "exactly one of --data (in-memory) and --input (streaming) "
            "is required"
        )


def _retry_policy(args: argparse.Namespace):
    """``--retries N`` to a :class:`~repro.reliability.RetryPolicy` (one
    try plus N retries), or ``None`` for the historical fail-fast path."""
    retries = getattr(args, "retries", 0)
    if not retries:
        return None
    from .reliability import RetryPolicy

    return RetryPolicy(max_attempts=retries + 1)


def _deadline(args: argparse.Namespace):
    """``--deadline SECONDS`` to a :class:`~repro.reliability.Deadline`
    armed now, or ``None`` (the historical unbounded run)."""
    seconds = getattr(args, "deadline", None)
    if not seconds:
        return None
    from .reliability import Deadline

    return Deadline(seconds)


def _print_reliability(report) -> None:
    """Surface recovery telemetry when anything was recovered from."""
    if report is not None and (report.any_recovery or report.bad_rows):
        print(report.summary())


def _workers(args: argparse.Namespace):
    """``--workers`` to the ``stream_*`` parameter: an int, ``"auto"``,
    or ``None`` for the historical single-process path."""
    value = getattr(args, "workers", None)
    if value is None:
        return None
    return int(value) if value.isdigit() else value


def _input_paths(args: argparse.Namespace) -> list[str]:
    """The repeated ``--input`` values (``action="append"`` yields a
    list; a single flag still arrives as a one-element list)."""
    value = args.input
    return [value] if isinstance(value, str) else list(value)


def cmd_embed_stream(args: argparse.Namespace) -> int:
    """File-mode embed: chunked, bounded memory, optionally resumable."""
    from .core import EmbeddingSpec, default_channel_length
    from .stream import count_data_rows, open_sink, open_sources, stream_mark

    if args.output is None:
        raise SystemExit("--input (streaming embed) requires --output")
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint")
    if args.verify_resume and not args.resume:
        raise SystemExit("--verify-resume requires --resume")
    paths = _input_paths(args)
    for flag, name in (
        (args.max_alteration is not None, "--max-alteration"),
        (bool(args.p_add), "--p-add"),
        (args.frequency_channel, "--frequency-channel"),
    ):
        if flag:
            raise SystemExit(
                f"{name} is not available in streaming mode (association "
                f"channel only; quality budgets need the whole relation)"
            )
    schema = _load_schema(args.schema)
    key = _load_key(args.key)
    watermark = _parse_watermark(args.watermark)
    channel_length = args.channel_length or default_channel_length(
        sum(count_data_rows(path) for path in paths), args.e, len(watermark)
    )
    spec = EmbeddingSpec(
        key_attribute=schema.primary_key,
        mark_attribute=args.attribute,
        e=args.e,
        watermark_length=len(watermark),
        channel_length=channel_length,
        ecc_name=args.ecc,
    )
    source = open_sources(
        paths, schema, chunk_size=args.chunk_size,
        on_bad_rows=args.on_bad_rows,
    )
    result = stream_mark(
        source,
        watermark,
        key,
        spec,
        open_sink(args.output),
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        retry=_retry_policy(args),
        deadline=_deadline(args),
        workers=_workers(args),
        verify_resume=args.verify_resume,
        lock=args.lock,
    )
    domain = schema.attribute(args.attribute).domain
    record = MarkRecord(
        watermark=watermark,
        spec=spec,
        domain_values=domain.values if domain is not None else None,
        metadata={
            "source": "+".join(str(path) for path in paths),
            "tuples": result.rows,
            "streamed": True,
        },
    )
    Path(args.record).write_text(record.to_json() + "\n", encoding="utf-8")
    resumed = (
        f", resumed at chunk {result.resumed_at_chunk}"
        if result.resumed_at_chunk else ""
    )
    print(
        f"embedded {len(watermark)} bits into {result.applied} of "
        f"{result.rows} tuples ({result.chunks + result.resumed_at_chunk} "
        f"chunks of {args.chunk_size}{resumed})"
    )
    print(f"marked data   -> {args.output}")
    print(f"mark record   -> {args.record} (escrow with the key)")
    _print_reliability(result.reliability)
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    _require_one_input(args)
    if args.input is not None:
        return cmd_embed_stream(args)
    if args.out is None:
        raise SystemExit("--data (in-memory embed) requires --out")
    table = _load_table(args.data, args.schema)
    key = _load_key(args.key)
    watermark = _parse_watermark(args.watermark)
    owner = Watermarker(key, e=args.e, ecc_name=args.ecc)
    constraints = []
    if args.max_alteration is not None:
        constraints.append(MaxAlterationFraction(args.max_alteration))
    outcome = owner.embed(
        table,
        watermark,
        mark_attribute=args.attribute,
        constraints=constraints,
        p_add=args.p_add,
        with_frequency_channel=args.frequency_channel,
    )
    write_csv(outcome.table, args.out)
    Path(args.record).write_text(
        outcome.record.to_json() + "\n", encoding="utf-8"
    )
    report = measure_distortion(table, outcome.table)
    print(
        f"embedded {len(watermark)} bits into {outcome.embedding.applied} "
        f"of {len(table)} tuples ({report.tuple_change_fraction:.2%} altered"
        f", {outcome.embedding.vetoed} vetoed)"
    )
    print(f"marked data   -> {args.out}")
    print(f"mark record   -> {args.record} (escrow with the key)")
    return 0


def cmd_detect_stream(args: argparse.Namespace) -> int:
    """File-mode detect: accumulator-based, bit-identical to in-memory."""
    from .relational import CategoricalDomain
    from .stream import open_sources, stream_verify

    if args.remap_recovery:
        raise SystemExit(
            "--remap-recovery is not available in streaming mode (recovery "
            "matches the whole frequency profile); run the suspect file "
            "through --data instead"
        )
    schema = _load_schema(args.schema)
    key = _load_key(args.key)
    record = MarkRecord.from_json(
        Path(args.record).read_text(encoding="utf-8")
    )
    domain = (
        CategoricalDomain(record.domain_values)
        if record.domain_values is not None else None
    )
    # Suspect copies may hold out-of-domain values; widen per chunk and
    # decode against the escrowed canonical domain, like the in-memory
    # blind detector does.
    source = open_sources(
        _input_paths(args), schema, chunk_size=args.chunk_size,
        infer_domains=True, on_bad_rows=args.on_bad_rows,
    )
    result = stream_verify(
        source,
        key,
        record.spec,
        record.watermark,
        embedding_map=record.embedding_map,
        domain=domain,
        significance=args.significance,
        retry=_retry_policy(args),
        deadline=_deadline(args),
        workers=_workers(args),
    )
    print(
        f"association channel ({result.rows} tuples in {result.chunks} "
        f"chunks): {result.summary()}"
    )
    _print_reliability(result.reliability)
    return 0 if result.detected else EXIT_NOT_DETECTED


def cmd_detect(args: argparse.Namespace) -> int:
    _require_one_input(args)
    if args.input is not None:
        return cmd_detect_stream(args)
    table = _load_table(args.data, args.schema)
    key = _load_key(args.key)
    record = MarkRecord.from_json(
        Path(args.record).read_text(encoding="utf-8")
    )
    owner = Watermarker(
        key, e=record.spec.e, ecc_name=record.spec.ecc_name,
        significance=args.significance,
    )
    verdict = owner.verify(
        table, record, try_remap_recovery=args.remap_recovery
    )
    print(verdict.summary())
    return 0 if verdict.detected else EXIT_NOT_DETECTED


def cmd_inspect(args: argparse.Namespace) -> int:
    table = _load_table(args.data, args.schema)
    print(f"relation : {table.name}")
    print(f"tuples   : {len(table)}")
    print(f"schema   : {table.schema}")
    attributes = (
        [args.attribute] if args.attribute
        else list(table.schema.categorical_names())
    )
    for attribute in attributes:
        histogram = frequency_histogram(table, attribute)
        profile = sorted_frequency_profile(histogram)
        print(f"\n{attribute}: {len(profile)} distinct values; top 5:")
        for value, frequency in profile[:5]:
            print(f"  {value!r:>16}  {frequency:.4f}")
    return 0


def _resolve_mode(mode: str) -> str | None:
    """CLI ``--mode`` to sweep-engine mode (``auto`` -> engine default)."""
    return None if mode == "auto" else mode


def _attack_factory(args: argparse.Namespace):
    from .attacks import (
        DataLossAttack,
        HorizontalPartitionAttack,
        SubsetAdditionAttack,
        SubsetAlterationAttack,
    )

    if args.attack == "alteration":
        return lambda x: SubsetAlterationAttack(
            args.attribute, x, args.flip_probability
        )
    if args.attack == "loss":
        return lambda x: DataLossAttack(x)
    if args.attack == "horizontal":
        return lambda x: HorizontalPartitionAttack(x)
    assert args.attack == "addition"
    return lambda x: SubsetAdditionAttack(x)


def _points_payload(points) -> list[dict]:
    return [
        {
            "x": point.x,
            "mean_alteration": round(point.mean_alteration, 6),
            "alteration_stdev": round(point.alteration_stdev, 6),
            "detection_rate": round(point.detection_rate, 6),
        }
        for point in points
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import format_series, sweep

    table = _load_table(args.data, args.schema)
    xs = [float(part) for part in args.xs.split(",") if part.strip()]
    if not xs:
        raise SystemExit("--xs needs at least one value")
    points = sweep(
        table,
        args.attribute,
        args.e,
        _attack_factory(args),
        xs,
        watermark_length=args.watermark_length,
        passes=args.passes,
        mode=_resolve_mode(args.mode),
        backend=args.backend,
    )
    title = (
        f"{args.attack} sweep on {args.attribute!r} (e={args.e}, "
        f"passes={args.passes}, backend={args.backend}, mode={args.mode})"
    )
    print(format_series(title, points, x_label="x", percent_x=True))
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "attack": args.attack,
                    "attribute": args.attribute,
                    "e": args.e,
                    "passes": args.passes,
                    "watermark_length": args.watermark_length,
                    "flip_probability": args.flip_probability,
                    "backend": args.backend,
                    "mode": args.mode,
                    "points": _points_payload(points),
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"series JSON   -> {args.json}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        FigureConfig,
        figure4_series,
        figure5_series,
        figure6_surface,
        figure7_series,
        format_series,
        format_surface,
    )

    config = FigureConfig(
        tuple_count=args.tuples, item_count=args.items, passes=args.passes
    )
    mode = _resolve_mode(args.mode)
    kwargs = dict(config=config, mode=mode, backend=args.backend)
    payload: dict = {
        "figure": args.figure,
        "tuples": args.tuples,
        "items": args.items,
        "passes": args.passes,
        "backend": args.backend,
        "mode": args.mode,
    }
    if args.figure == 4:
        series = figure4_series(**kwargs)
        for e, points in series.items():
            print(format_series(
                f"figure 4 (e={e})", points, "attack size", percent_x=True
            ))
        payload["series"] = {
            str(e): _points_payload(points) for e, points in series.items()
        }
    elif args.figure == 5:
        series = figure5_series(**kwargs)
        for attack_size, points in series.items():
            print(format_series(
                f"figure 5 (attack={attack_size:.0%})", points, "e"
            ))
        payload["series"] = {
            f"{attack_size:g}": _points_payload(points)
            for attack_size, points in series.items()
        }
    elif args.figure == 6:
        surface = figure6_surface(**kwargs)
        print(format_surface("figure 6", surface))
        payload["surface"] = [
            {"e": e, "attack": attack, "mean_alteration": round(value, 6)}
            for e, attack, value in surface
        ]
    else:
        points = figure7_series(config=config, mode=mode, backend=args.backend)
        print(format_series("figure 7", points, "data loss", percent_x=True))
        payload["points"] = _points_payload(points)
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"figure JSON   -> {args.json}")
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    """Print a schema JSON template inferred from a CSV header."""
    header = (
        Path(args.data).read_text(encoding="utf-8").splitlines()[0].split(",")
    )
    template = {
        "primary_key": header[0],
        "attributes": [
            {"name": name, "type": "integer" if index == 0 else "categorical",
             "domain": []} if index else {"name": name, "type": "integer"}
            for index, name in enumerate(header)
        ],
    }
    print(json.dumps(template, indent=2))
    print(
        "\n# fill in types/domains, then validate with:"
        "\n#   python -c 'from repro.relational import schema_from_json; "
        "schema_from_json(open(\"schema.json\").read())'",
        file=sys.stderr,
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Verify a marked output against its chunk-hash journal.

    Re-hashes every journalled chunk of the CSV/.csv.gz/SQLite output and
    localizes any corruption to the exact chunk, so an operator can tell
    "the archive rotted at chunk 17" apart from "the whole file is fake".
    Exit code 0 = every chunk verifies; 8 = integrity violation.
    """
    from .reliability import audit_stream, journal_path

    if (args.checkpoint is None) == (args.journal is None):
        raise SystemExit(
            "exactly one of --checkpoint (journal lives next to it) and "
            "--journal is required"
        )
    journal = args.journal or journal_path(args.checkpoint)
    report = audit_stream(args.output, journal=journal, table=args.table)
    print(report.summary())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"audit report  -> {args.json}")
    return 0 if report.ok else EXIT_INTEGRITY


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wm",
        description="Watermark categorical relational data (Sion, ICDE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    genkey = sub.add_parser("genkey", help="generate a secret key pair")
    genkey.add_argument("--out", required=True, help="output key JSON path")
    genkey.add_argument(
        "--seed", default=None,
        help="deterministic seed (omit for a random key)",
    )
    genkey.set_defaults(handler=cmd_genkey)

    embed = sub.add_parser(
        "embed", aliases=["mark"],
        help="watermark a relation (in-memory CSV or streamed file mode)",
    )
    embed.add_argument(
        "--data", default=None, help="input CSV (in-memory mode)"
    )
    embed.add_argument(
        "--input", action="append", default=None,
        help="input CSV/.csv.gz/SQLite (streaming file mode); repeat to "
             "concatenate several files into one relation",
    )
    embed.add_argument("--schema", required=True, help="schema JSON")
    embed.add_argument("--key", required=True, help="key JSON from genkey")
    embed.add_argument(
        "--attribute", required=True, help="categorical attribute to mark"
    )
    embed.add_argument(
        "--watermark", required=True,
        help="payload: plain text, 'hex:AC5' or 'bits:1011'",
    )
    embed.add_argument("--e", type=int, default=60, help="encoding parameter")
    embed.add_argument("--ecc", default="majority", help="error code name")
    embed.add_argument(
        "--max-alteration", type=float, default=None,
        help="quality budget: max fraction of tuples altered",
    )
    embed.add_argument(
        "--p-add", type=float, default=0.0,
        help="reinforce with this fraction of synthetic fit tuples (§4.6)",
    )
    embed.add_argument(
        "--frequency-channel", action="store_true",
        help="also mark the value-frequency histogram (§4.2)",
    )
    embed.add_argument(
        "--out", default=None, help="marked CSV output (in-memory mode)"
    )
    embed.add_argument(
        "--output", default=None,
        help="marked CSV/.csv.gz/SQLite output (streaming file mode)",
    )
    embed.add_argument(
        "--chunk-size", type=int, default=65_536,
        help="rows per streamed chunk (file mode; default 65536)",
    )
    embed.add_argument(
        "--channel-length", type=int, default=None,
        help="|wm_data| override (file mode; default max(|wm|, N/e))",
    )
    embed.add_argument(
        "--checkpoint", default=None,
        help="checkpoint JSON path making a file-mode embed resumable",
    )
    embed.add_argument(
        "--resume", action="store_true",
        help="resume a file-mode embed from --checkpoint",
    )
    embed.add_argument(
        "--retries", type=int, default=0,
        help="retry transient I/O failures up to N times per operation "
             "(file mode; deterministic backoff; default 0 = fail fast)",
    )
    embed.add_argument(
        "--on-bad-rows", choices=("raise", "skip", "quarantine"),
        default="raise",
        help="file-mode policy for unparseable CSV rows: abort (default), "
             "drop, or drop + append to a .quarantine.csv sidecar",
    )
    embed.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds (file mode); expiry stops the "
             "run at a resumable chunk boundary with exit code 7",
    )
    embed.add_argument(
        "--workers", default=None,
        help="file-mode worker processes for per-chunk embed kernels "
             "('auto' sizes from cpu count); output stays byte-identical "
             "to a single-core run (default: 1)",
    )
    embed.add_argument(
        "--verify-resume", action="store_true",
        help="with --resume: re-hash the surviving output against the "
             "chunk journal and rewind to the last verified chunk, so "
             "recovery stays byte-identical even under silent bit rot",
    )
    embed.add_argument(
        "--lock", action="store_true",
        help="exactly-once run locking: hold a lease next to the "
             "checkpoint so a concurrent embed/resume of the same run "
             "fails fast with exit code 8 instead of interleaving writes",
    )
    embed.add_argument(
        "--record", required=True, help="mark record JSON output (escrow)"
    )
    embed.set_defaults(handler=cmd_embed)

    audit = sub.add_parser(
        "audit",
        help="verify a marked output against its chunk-hash journal",
    )
    audit.add_argument(
        "--output", required=True,
        help="marked CSV/.csv.gz/SQLite output to verify",
    )
    audit.add_argument(
        "--checkpoint", default=None,
        help="checkpoint path of the embed run (journal sits next to it)",
    )
    audit.add_argument(
        "--journal", default=None,
        help="explicit journal path (instead of --checkpoint)",
    )
    audit.add_argument(
        "--table", default="relation",
        help="SQLite table name (default: relation)",
    )
    audit.add_argument(
        "--json", default=None, help="also write the audit report as JSON"
    )
    audit.set_defaults(handler=cmd_audit)

    detect = sub.add_parser(
        "detect",
        help="blindly verify a suspect relation (in-memory or streamed)",
    )
    detect.add_argument(
        "--data", default=None, help="suspect CSV (in-memory mode)"
    )
    detect.add_argument(
        "--input", action="append", default=None,
        help="suspect CSV/.csv.gz/SQLite (streaming file mode); repeat "
             "to scan several files as one relation",
    )
    detect.add_argument(
        "--chunk-size", type=int, default=65_536,
        help="rows per streamed chunk (file mode; default 65536)",
    )
    detect.add_argument("--schema", required=True, help="schema JSON")
    detect.add_argument("--key", required=True, help="key JSON")
    detect.add_argument("--record", required=True, help="mark record JSON")
    detect.add_argument(
        "--significance", type=float, default=0.01,
        help="false-hit probability threshold (default 0.01)",
    )
    detect.add_argument(
        "--remap-recovery", action="store_true",
        help="attempt §4.5 bijective-remapping recovery before decoding",
    )
    detect.add_argument(
        "--retries", type=int, default=0,
        help="retry transient I/O failures up to N times per operation "
             "(file mode; deterministic backoff; default 0 = fail fast)",
    )
    detect.add_argument(
        "--on-bad-rows", choices=("raise", "skip", "quarantine"),
        default="raise",
        help="file-mode policy for unparseable CSV rows: abort (default), "
             "drop, or drop + append to a .quarantine.csv sidecar",
    )
    detect.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds (file mode); expiry stops the "
             "scan with exit code 7",
    )
    detect.add_argument(
        "--workers", default=None,
        help="file-mode worker processes for per-chunk detect kernels "
             "('auto' sizes from cpu count); the verdict stays "
             "bit-identical to a single-core scan (default: 1)",
    )
    detect.set_defaults(handler=cmd_detect)

    backend_choices = ("scalar", "vector")
    mode_choices = ("auto", "serial", "hoisted", "pooled")

    sweep = sub.add_parser(
        "sweep",
        help="run the §5 multi-pass protocol over an attack-strength axis",
    )
    sweep.add_argument("--data", required=True, help="base relation CSV")
    sweep.add_argument("--schema", required=True, help="schema JSON")
    sweep.add_argument(
        "--attribute", required=True, help="categorical attribute to mark"
    )
    sweep.add_argument("--e", type=int, default=65, help="encoding parameter")
    sweep.add_argument(
        "--attack",
        choices=("alteration", "loss", "horizontal", "addition"),
        default="alteration",
        help="attack family swept over --xs",
    )
    sweep.add_argument(
        "--xs", required=True,
        help="comma-separated attack strengths (e.g. 0.2,0.4,0.6)",
    )
    sweep.add_argument(
        "--passes", type=int, default=15,
        help="keyed passes per point (the paper uses 15)",
    )
    sweep.add_argument(
        "--watermark-length", type=int, default=10, help="|wm| bits"
    )
    sweep.add_argument(
        "--flip-probability", type=float, default=0.7,
        help="alteration bit-kill probability p (paper's estimate: 0.7)",
    )
    sweep.add_argument(
        "--backend", choices=backend_choices, default="vector",
        help="execution backend for embed/verify (bit-identical)",
    )
    sweep.add_argument(
        "--mode", choices=mode_choices, default="auto",
        help="sweep engine execution mode (serial = reference cost model)",
    )
    sweep.add_argument(
        "--json", default=None, help="optional JSON output path"
    )
    sweep.set_defaults(handler=cmd_sweep)

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's figure series"
    )
    figure.add_argument(
        "--figure", type=int, choices=(4, 5, 6, 7), required=True
    )
    figure.add_argument(
        "--tuples", type=int, default=6000, help="relation size (§5: 6000)"
    )
    figure.add_argument(
        "--items", type=int, default=500, help="distinct item count"
    )
    figure.add_argument(
        "--passes", type=int, default=15, help="keyed passes per point"
    )
    figure.add_argument("--backend", choices=backend_choices, default="vector")
    figure.add_argument("--mode", choices=mode_choices, default="auto")
    figure.add_argument(
        "--json", default=None, help="optional JSON output path"
    )
    figure.set_defaults(handler=cmd_figure)

    inspect = sub.add_parser(
        "inspect", help="show size and frequency profiles of a CSV"
    )
    inspect.add_argument("--data", required=True)
    inspect.add_argument("--schema", required=True)
    inspect.add_argument("--attribute", default=None)
    inspect.set_defaults(handler=cmd_inspect)

    schema = sub.add_parser(
        "schema-template", help="print a schema JSON skeleton for a CSV"
    )
    schema.add_argument("--data", required=True)
    schema.set_defaults(handler=cmd_schema)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .reliability import (
        DeadlineExceededError,
        IntegrityError,
        RetryError,
        RunLockedError,
    )
    from .stream import BadRowError, CheckpointCorruptError

    # The failure taxonomy as exit codes, so shell pipelines can
    # distinguish "resume from a damaged checkpoint" from "disk kept
    # failing" from "the input itself is malformed".
    try:
        return args.handler(args)
    except CheckpointCorruptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_CORRUPT
    except RetryError as exc:
        cause = exc.__cause__
        detail = f" (last failure: {cause})" if cause is not None else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return EXIT_RETRY_EXHAUSTED
    except BadRowError as exc:
        print(
            f"error: {exc}\n(use --on-bad-rows skip|quarantine to "
            f"continue past malformed rows)",
            file=sys.stderr,
        )
        return EXIT_BAD_ROWS
    except DeadlineExceededError as exc:
        print(
            f"error: {exc}\n(progress up to the last completed boundary "
            f"is durable; re-run with --checkpoint ... --resume and a "
            f"fresh --deadline to continue)",
            file=sys.stderr,
        )
        return EXIT_DEADLINE_EXCEEDED
    except RunLockedError as exc:
        print(
            f"error: {exc}\n(another process holds this run's lease; "
            f"wait for it to finish, or remove the .lock file if it is "
            f"provably dead)",
            file=sys.stderr,
        )
        return EXIT_INTEGRITY
    except IntegrityError as exc:
        print(
            f"error: {exc}\n(run `repro-wm audit` to localize the damage,"
            f" restore the corrupt chunks from a replica, then "
            f"--resume --verify-resume)",
            file=sys.stderr,
        )
        return EXIT_INTEGRITY
    except OSError as exc:
        if exc.errno != errno.ENOSPC:
            raise
        print(
            f"error: {exc}\n(disk full; progress up to the last durable "
            f"boundary is checkpointed — free space and re-run with "
            f"--checkpoint ... --resume to continue)",
            file=sys.stderr,
        )
        return EXIT_RETRY_EXHAUSTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
