"""Sweep-level execution engine: embed once per keyed pass, attack many.

The §5 protocol averages every reported figure over 15 keyed passes, and
every figure (4-7) sweeps that protocol over an attack-strength axis.  The
naive runner re-embeds the watermark once per pass *per sweep point* —
``passes x len(xs)`` embeds where ``passes`` suffice, because the embedded
relation for a given seed is the same at every sweep point; only the attack
differs.  This module restructures the sweep around that observation:

* **embed hoisting** — one :class:`EmbeddedPass` (marked table + mark
  record + warm :class:`~repro.crypto.HashEngine`) is built per seed and
  shared, read-only, across every sweep point.  Attacks operate on
  copy-on-write :meth:`~repro.relational.table.Table.clone` copies, so the
  shared table is never mutated.  A figure pays ``passes`` embeds instead
  of ``passes x len(xs)``.
* **persistent worker pool** — ``(seed, x)`` attack+verify cells fan out
  across a persistent process pool whose workers are initialized *once*
  with the base relation and then reused across sweep points and across
  successive sweeps in one bench run.  Work is partitioned by seed: one
  task per seed runs through the one ordered pool run
  (:class:`~repro.reliability.pool.OrderedRun`, shared with the parallel
  stream pipeline), so each worker embeds a seed at most once and keeps
  the pass cached for later sweeps.  Once a seed spends the retry
  budget, the seeds the pool has not committed yet run in process on
  their hoisted passes.
* **deterministic serial path** — :data:`MODE_SERIAL` re-embeds per cell,
  exactly the naive runner's cost model, and is pinned bit-identical to
  the hoisted and pooled paths by the equivalence tests.

Determinism contract
--------------------

Every execution mode produces bit-identical :class:`PassResult` lists
because every source of randomness in a cell ``(seed, x)`` is derived from
literal labels, never from shared mutable state or execution order:

* key pair: ``MarkKey.from_seed(seed)``;
* watermark bits: ``Watermark.random(length, random.Random(f"wm:{seed}"))``;
* attack randomness: ``random.Random(f"attack:{seed}:{x}")`` — one private
  generator per cell, so cells can run in any order on any worker.  The
  single-point protocol (:func:`~repro.experiments.runner
  .run_attack_experiment`) passes ``x = None`` and gets the historical
  ``random.Random(f"attack:{seed}")`` label, keeping its outputs identical
  to the pre-engine runner.

Embedding itself is a pure function of ``(base table, key, watermark,
spec)`` — the quality guard draws no randomness — so re-embedding per cell
(serial), embedding once per seed (hoisted) and embedding inside a worker
process (pooled) all yield the same marked relation, and therefore the
same verdicts.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import random
import weakref
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from statistics import mean, pstdev
from typing import Any

from ..attacks import Attack
from ..core import Watermark, Watermarker, kernels, verify_multipass
from ..crypto import SCALAR, VECTOR, MarkKey
from ..relational import CategoricalDomain, Table
from ..reliability.deadline import Deadline, check_deadline
from ..reliability.pool import (
    POOL_LABEL,
    OrderedRun,
    PersistentPool,
    heartbeat,
    resolve_watchdog,
)
from ..reliability.report import ReliabilityReport
from ..reliability.retry import RetryPolicy
from ..reliability.watchdog import Watchdog

logger = logging.getLogger(__name__)

#: the paper's pass count
PAPER_PASSES = 15

#: execution modes
MODE_AUTO = "auto"        # pooled when >= 2 cores, hoisted otherwise
MODE_SERIAL = "serial"    # re-embed per (seed, x) cell — the reference
MODE_HOISTED = "hoisted"  # embed once per seed, run cells in-process
MODE_POOLED = "pooled"    # embed once per seed *per worker*, cells fan out

_MODES = (MODE_AUTO, MODE_SERIAL, MODE_HOISTED, MODE_POOLED)

#: embedded passes kept warm per engine (and per pool worker)
_PASS_CACHE_SIZE = 64

#: below this many cell-rows (cells x relation size) MODE_AUTO stays on
#: the in-process hoisted path: worker startup + shipping the relation
#: would cost more than the fan-out saves on a small grid
AUTO_POOL_THRESHOLD = 250_000


@dataclass(frozen=True)
class PassResult:
    """One keyed embed -> attack -> verify round trip."""

    seed: int
    mark_alteration: float
    detected: bool
    false_hit_probability: float
    fit_count: int
    slots_recovered: int


@dataclass
class ExperimentPoint:
    """Averaged outcome of all passes at one parameter point."""

    x: float
    passes: list[PassResult] = field(default_factory=list)

    @property
    def mean_alteration(self) -> float:
        if not self.passes:
            return 0.0
        return mean(result.mark_alteration for result in self.passes)

    @property
    def alteration_stdev(self) -> float:
        if len(self.passes) < 2:
            return 0.0
        return pstdev(result.mark_alteration for result in self.passes)

    @property
    def detection_rate(self) -> float:
        if not self.passes:
            return 0.0
        return mean(1.0 if result.detected else 0.0 for result in self.passes)


@dataclass(frozen=True)
class SweepProtocol:
    """The per-pass embedding recipe a sweep holds fixed.

    Hashable (it keys the embedded-pass caches) and picklable (it travels
    to pool workers).  Everything else a cell needs — the seed and the
    attack — varies per cell.

    ``backend`` is the execution backend every pass embeds and verifies
    on (:data:`~repro.crypto.SCALAR` or :data:`~repro.crypto.VECTOR`);
    both are bit-identical, so it never changes results — only speed.
    """

    mark_attribute: str
    e: int
    watermark_length: int = 10
    ecc_name: str = "majority"
    variant: str = "keyed"
    backend: str = VECTOR


@dataclass
class EmbeddedPass:
    """One seed's embedding, reused across every sweep point.

    ``table`` is shared read-only: attacks clone it copy-on-write, so all
    cells of a seed read the same physical rows.  ``marker`` carries the
    warm shared :class:`~repro.crypto.HashEngine` for the seed's key, so
    every re-detection of an attacked clone is hash-free.
    """

    seed: int
    marker: Watermarker
    table: Table
    record: Any  # MarkRecord

    @classmethod
    def build(
        cls, base_table: Table, protocol: SweepProtocol, seed: int
    ) -> "EmbeddedPass":
        key = MarkKey.from_seed(seed)
        watermark = Watermark.random(
            protocol.watermark_length, random.Random(f"wm:{seed}")
        )
        marker = Watermarker(
            key,
            e=protocol.e,
            ecc_name=protocol.ecc_name,
            variant=protocol.variant,
            engine=protocol.backend,
        )
        outcome = marker.embed(base_table, watermark, protocol.mark_attribute)
        if marker.engine != SCALAR:
            # Re-factorize the mark column once per seed: embedding just
            # rewrote it, and every attacked clone of this pass inherits
            # the refreshed codes copy-on-write — so the code-level
            # attacks and the fused detection kernel start warm at every
            # sweep point instead of re-factorizing per cell.
            kernels.warm_codes(outcome.table, protocol.mark_attribute)
        return cls(
            seed=seed, marker=marker, table=outcome.table,
            record=outcome.record,
        )


def cell_rng(seed: int, x: float | None) -> random.Random:
    """The private attack generator of cell ``(seed, x)``.

    ``x = None`` keeps the historical single-point label so
    ``run_attack_experiment`` outputs are unchanged from the serial runner.
    """
    if x is None:
        return random.Random(f"attack:{seed}")
    return random.Random(f"attack:{seed}:{x}")


def run_cell(
    embedded: EmbeddedPass, attack: Attack, x: float | None
) -> PassResult:
    """Attack + verify one ``(seed, x)`` cell of an embedded pass."""
    attacked = attack.apply(embedded.table, cell_rng(embedded.seed, x))
    return _verify_cell(embedded, attacked)


def _verify_cell(embedded: EmbeddedPass, attacked: Table) -> PassResult:
    """Verify one already-attacked cell (the per-pass reference path)."""
    verdict = embedded.marker.verify(attacked, embedded.record)
    association = verdict.association
    if association is None:
        raise RuntimeError(
            "attack removed the marked pair; use the multi-attribute or "
            "frequency experiment instead"
        )
    return PassResult(
        seed=embedded.seed,
        mark_alteration=association.mark_alteration,
        detected=association.detected,
        false_hit_probability=association.false_hit_probability,
        fit_count=association.detection.fit_count,
        slots_recovered=association.detection.slots_recovered,
    )


def run_point(
    passes: Sequence[EmbeddedPass],
    attack: Attack,
    x: float | None,
    fused: bool = True,
) -> list[PassResult]:
    """Every pass's cell at one sweep point — fused when possible.

    Attacks run per cell under the usual rng contract; verification of
    all P attacked clones then goes through one
    :func:`~repro.core.detection.verify_multipass` call (one carrier
    gather + one ``bincount`` for the whole point) whenever the passes
    are homogeneous and the attacked clones share the base relation's
    key-column factorization.  Heterogeneous or non-vector points fall
    back to the per-cell path; both are bit-identical.
    """
    attacked = [
        attack.apply(embedded.table, cell_rng(embedded.seed, x))
        for embedded in passes
    ]
    if fused and len(passes) > 1:
        results = _fused_point_results(passes, attacked)
        if results is not None:
            return results
    return [
        _verify_cell(embedded, suspect)
        for embedded, suspect in zip(passes, attacked)
    ]


def _fused_point_results(
    passes: Sequence[EmbeddedPass], attacked: Sequence[Table]
) -> list[PassResult] | None:
    """Fused verification of one sweep point, or ``None`` to fall back.

    Fusable when every pass shares the protocol-shaped state (spec,
    domain, VECTOR backend, significance, no frequency channel) and every
    attacked clone presents the same key-column factorization object —
    the regime of every alteration-style sweep cell.  The per-cell
    fallback produces bit-identical results.
    """
    first = passes[0]
    record = first.record
    spec = record.spec
    marker = first.marker
    backend = marker.engine
    if not isinstance(backend, str) or backend == SCALAR:
        return None
    for embedded in passes:
        other = embedded.record
        if (
            other.spec != spec
            or other.frequency_record is not None
            or other.domain_values != record.domain_values
            or embedded.marker.engine != backend
            or embedded.marker.significance != marker.significance
        ):
            return None
    for suspect in attacked:
        if (
            spec.key_attribute not in suspect.schema
            or spec.mark_attribute not in suspect.schema
        ):
            return None
    if kernels.shared_key_codes(attacked, spec.key_attribute) is None:
        return None
    domain = (
        CategoricalDomain(record.domain_values)
        if record.domain_values is not None
        else None
    )
    verifications = verify_multipass(
        attacked,
        [embedded.marker.key for embedded in passes],
        spec,
        [embedded.record.watermark for embedded in passes],
        embedding_maps=[embedded.record.embedding_map for embedded in passes],
        domain=domain,
        significance=marker.significance,
        engine=backend,
    )
    return [
        PassResult(
            seed=embedded.seed,
            mark_alteration=result.mark_alteration,
            detected=result.detected,
            false_hit_probability=result.false_hit_probability,
            fit_count=result.detection.fit_count,
            slots_recovered=result.detection.slots_recovered,
        )
        for embedded, result in zip(passes, verifications)
    ]


# Token memoization, keyed by table identity (tables are content-equal
# comparable, hence unhashable — the weak reference guards id reuse and
# cleans the slot up when the table dies).
_token_cache: dict[int, tuple["weakref.ref[Table]", int, bytes]] = {}


def _table_token(table: Table) -> bytes:
    """Content fingerprint of a relation (schema + rows, physical order).

    Keys the embedded-pass caches and the persistent pool: equal-content
    base relations (e.g. the same ``generate_item_scan`` call in two
    benches) share warm state; any difference — including row order —
    forces a re-embed, which is always safe.  Memoized per (table,
    version) so repeated runs over one base relation hash it once.
    """
    slot = id(table)
    entry = _token_cache.get(slot)
    if (
        entry is not None
        and entry[0]() is table
        and entry[1] == table.version
    ):
        return entry[2]
    digest = hashlib.sha256()
    digest.update(repr(table.schema).encode("utf-8"))
    for row in table:
        digest.update(repr(row).encode("utf-8"))
    token = digest.digest()
    _token_cache[slot] = (
        weakref.ref(
            table, lambda ref, _slot=slot: _token_cache.pop(_slot, None)
        ),
        table.version,
        token,
    )
    return token


# -- persistent worker pool ---------------------------------------------------
#
# One module-level pool, keyed by the base-table token.  Workers are
# initialized once with the base relation; each task covers one seed's
# cells for a sweep, so a worker embeds each (protocol, seed) it meets at
# most once and keeps the pass cached for later points and later sweeps.

_pool = PersistentPool("sweep-heartbeat-")

# Worker-process globals (set by _worker_init, used by _worker_run_seed).
_WORKER_TABLE: Table | None = None
_WORKER_PASSES: "OrderedDict[tuple[SweepProtocol, int], EmbeddedPass]" = (
    OrderedDict()
)


def _worker_init(table: Table) -> None:
    """Pool initializer: install the base relation in the worker."""
    global _WORKER_TABLE
    _WORKER_TABLE = table
    _WORKER_PASSES.clear()


def _worker_embedded_pass(
    protocol: SweepProtocol, seed: int
) -> EmbeddedPass:
    cache_key = (protocol, seed)
    embedded = _WORKER_PASSES.get(cache_key)
    if embedded is None:
        assert _WORKER_TABLE is not None, "pool worker was not initialized"
        embedded = EmbeddedPass.build(_WORKER_TABLE, protocol, seed)
        _WORKER_PASSES[cache_key] = embedded
        while len(_WORKER_PASSES) > _PASS_CACHE_SIZE:
            _WORKER_PASSES.popitem(last=False)
    else:
        _WORKER_PASSES.move_to_end(cache_key)
    return embedded


def _worker_run_seed(
    protocol: SweepProtocol,
    cells: list[tuple[float | None, Attack]],
    seed: int,
) -> list[PassResult]:
    """Pool task: all of one seed's cells, in sweep-point order.

    Each cell boundary heartbeats the pool's watchdog directory, so a
    worker stuck inside a cell is detectable from the parent.
    """
    embedded = _worker_embedded_pass(protocol, seed)
    results = []
    for x, attack in cells:
        heartbeat()
        results.append(run_cell(embedded, attack, x))
    return results


def _worker_call(fn, args: tuple) -> Any:
    """Pool task adapter for table-parametrized jobs outside the sweep
    protocol (e.g. the analysis Monte-Carlo loops): calls
    ``fn(worker_table, *args)``."""
    assert _WORKER_TABLE is not None, "pool worker was not initialized"
    return fn(_WORKER_TABLE, *args)


def shutdown_sweep_pool() -> None:
    """Retire the persistent pool (test isolation, table change, exit)."""
    _pool.shutdown()


#: wall-clock budget of one pool_table_tasks batch; far above any
#: legitimate batch, so spending it means a hung worker
DEFAULT_TASK_TIMEOUT = 600.0


def pool_table_tasks(
    table: Table,
    fn,
    task_args: Sequence[tuple],
    max_workers: int | None = None,
) -> list[Any]:
    """Run ``fn(table, *args)`` for every ``args`` on the persistent pool.

    ``fn`` must be a module-level function (pickled by reference).  The
    table ships to the workers once, via the pool initializer — the lever
    that makes many small tasks over one large relation affordable.  The
    tasks run through the one ordered pool run under the default
    :class:`~repro.reliability.RetryPolicy`: a transient failure is
    retried, a task that spends the budget finishes the batch in process
    (``fn(table, *args)``, the same results), and a permanent error —
    whatever a task raises outside the transient taxonomy — propagates.

    The batch runs under a :data:`DEFAULT_TASK_TIMEOUT` deadline, since a
    task beats its heartbeat only once and no watchdog can bound it: a
    hung worker spends the deadline, the pool's workers are killed and
    the executor retired, and
    :class:`~repro.reliability.DeadlineExceededError` propagates at
    ``pool.worker[<tasks done>]`` instead of blocking forever.
    """
    workers = max_workers or os.cpu_count() or 1
    # An unpicklable payload would deadlock the executor's queue-feeder
    # thread instead of raising; probe here so callers get a clean
    # exception.
    pickle.dumps((fn, list(task_args)))
    results: list[Any] = []
    OrderedRun(
        _pool,
        lambda: _pool.ensure(_table_token(table), workers, _worker_init, table),
        partial(_worker_call, fn),
        lambda args: fn(table, *args),
        lambda args, result: results.append(result),
        workers=workers, label=POOL_LABEL, retry=RetryPolicy(),
        deadline=Deadline(DEFAULT_TASK_TIMEOUT), watchdog=None,
        reliability=ReliabilityReport(),
    ).run(enumerate(task_args))
    return results


# -- the engine ---------------------------------------------------------------

class SweepEngine:
    """Executes embed-once / attack-many sweeps under one of three modes.

    The engine caches one :class:`EmbeddedPass` per ``(base table,
    protocol, seed)`` — the hoisted and pooled modes reuse them across
    sweep points *and across successive `run`/`sweep` calls*, which is
    what makes a bench run's second figure start warm.  ``embeds_performed``
    counts actual in-process embeds (pooled-mode embeds happen inside the
    workers and are counted there), so the perf-smoke suite can assert
    that a second sweep point performs zero embeds.
    """

    def __init__(
        self,
        mode: str = MODE_AUTO,
        max_workers: int | None = None,
        retry: RetryPolicy | None = None,
        watchdog: Watchdog | bool | None = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers
        #: bounded-attempt policy for pooled-mode task retries and pool
        #: respawns (per-seed tasks are pure functions of their labels,
        #: so a retried task is bit-identical to a first-try one); a seed
        #: that spends it finishes the run in process
        self.retry = retry if retry is not None else RetryPolicy()
        #: heartbeat watchdog over the pooled workers (``False`` disables;
        #: ``None`` takes the default 300 s silence budget)
        self.watchdog = resolve_watchdog(watchdog)
        self._passes: "OrderedDict[tuple[bytes, SweepProtocol, int], EmbeddedPass]" = (
            OrderedDict()
        )
        #: telemetry: in-process embedding passes actually performed
        self.embeds_performed = 0
        #: telemetry: (seed, x) cells evaluated (all modes, parent count)
        self.cells_executed = 0
        #: telemetry: recovery actions (retries, respawns, fallbacks)
        self.reliability = ReliabilityReport()

    def cache_info(self) -> dict[str, int]:
        """Engine telemetry snapshot (``functools.cache_info`` style) —
        cache occupancy, work counters, and the recovery counters that
        make pool degradation visible instead of silent."""
        return {
            "passes_cached": len(self._passes),
            "pass_cache_size": _PASS_CACHE_SIZE,
            "embeds_performed": self.embeds_performed,
            "cells_executed": self.cells_executed,
            "cell_retries": self.reliability.cell_retries,
            "pool_respawns": self.reliability.pool_respawns,
            "pool_fallbacks": self.reliability.pool_fallbacks,
        }

    def reliability_report(self) -> ReliabilityReport:
        """The engine's accumulated :class:`ReliabilityReport`."""
        return self.reliability

    # -- embedded-pass cache ------------------------------------------------
    def embedded_pass(
        self,
        base_table: Table,
        protocol: SweepProtocol,
        seed: int,
        token: bytes | None = None,
    ) -> EmbeddedPass:
        """The cached (or freshly built) embedding of ``seed``."""
        if token is None:
            token = _table_token(base_table)
        cache_key = (token, protocol, seed)
        embedded = self._passes.get(cache_key)
        if embedded is None:
            embedded = EmbeddedPass.build(base_table, protocol, seed)
            self.embeds_performed += 1
            self._passes[cache_key] = embedded
            while len(self._passes) > _PASS_CACHE_SIZE:
                self._passes.popitem(last=False)
        else:
            self._passes.move_to_end(cache_key)
        return embedded

    # -- execution ----------------------------------------------------------
    def _resolve_mode(self, mode: str | None, cell_rows: int) -> str:
        """Pick the execution path for a grid of ``cell_rows`` cell-rows.

        Auto mode pools only when there are cores to fan across *and*
        the workload amortizes worker startup + shipping the relation
        (``cell_rows >= AUTO_POOL_THRESHOLD``); note the pool is a single
        slot keyed by the base table, so workloads alternating between
        large tables should force a mode explicitly rather than churn it.
        """
        resolved = mode or self.mode
        if resolved == MODE_AUTO:
            cores = self.max_workers or os.cpu_count() or 1
            if cores >= 2 and cell_rows >= AUTO_POOL_THRESHOLD:
                return MODE_POOLED
            return MODE_HOISTED
        return resolved

    def run(
        self,
        base_table: Table,
        protocol: SweepProtocol,
        attacks: Sequence[tuple[float | None, Attack]],
        seeds: Iterable[int],
        mode: str | None = None,
        deadline: Deadline | None = None,
    ) -> list[ExperimentPoint]:
        """Run the full ``seeds x attacks`` cell grid.

        ``attacks`` is a sequence of ``(x, attack)`` pairs — the attack is
        pre-built per point so only picklable attack instances (not
        factories) ever cross the process boundary.

        ``deadline`` bounds the run's wall-clock: it is checked at every
        cell, point or seed boundary and caps every pool wait, and expiry
        raises :class:`~repro.reliability.DeadlineExceededError`.

        A pooled run follows the one failure rule of
        :mod:`repro.reliability.pool`: a transient failure re-dispatches
        its seed, a broken pool respawns, and a seed that spends the retry
        budget — a pool that cannot start included — finishes the sweep
        in process: the seeds the pool already committed are kept, the
        rest run on their hoisted passes (bit-identical), with one warning
        and one ``pool_fallbacks``; the next run tries the pool again.  A
        permanent error raises at once.  An attack that cannot be pickled
        runs the whole sweep hoisted, also with one warning and one
        ``pool_fallbacks``.
        """
        seeds = list(seeds)
        attacks = list(attacks)
        resolved = self._resolve_mode(
            mode, len(seeds) * len(attacks) * len(base_table)
        )
        if resolved == MODE_POOLED:
            # Probe picklability up front: an unpicklable attack submitted
            # to the executor deadlocks its queue-feeder thread instead of
            # raising.
            try:
                pickle.dumps((protocol, attacks))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                self.reliability.pool_fallbacks += 1
                logger.warning(
                    "pooled sweep cannot ship its attacks (%s: %s); falling "
                    "back to the bit-identical hoisted path",
                    type(exc).__name__, exc,
                )
            else:
                return self._run_pooled(
                    base_table, protocol, attacks, seeds, deadline
                )
        if resolved == MODE_SERIAL:
            return self._run_serial(
                base_table, protocol, attacks, seeds, deadline
            )
        return self._run_hoisted(
            base_table, protocol, attacks, seeds, deadline
        )

    def _run_serial(self, base_table, protocol, attacks, seeds, deadline=None):
        """Reference path: re-embed per cell (the naive runner's cost)."""
        points = []
        cell_index = 0
        for x, attack in attacks:
            results = []
            for seed in seeds:
                check_deadline(deadline, "sweep.cell", cell_index)
                embedded = EmbeddedPass.build(base_table, protocol, seed)
                self.embeds_performed += 1
                results.append(run_cell(embedded, attack, x))
                self.cells_executed += 1
                cell_index += 1
            points.append(ExperimentPoint(x=x, passes=results))
        return points

    def _run_hoisted(self, base_table, protocol, attacks, seeds, deadline=None):
        token = _table_token(base_table)
        passes = []
        for position, seed in enumerate(seeds):
            check_deadline(deadline, "sweep.embed", position)
            passes.append(
                self.embedded_pass(base_table, protocol, seed, token=token)
            )
        points = []
        for position, (x, attack) in enumerate(attacks):
            check_deadline(deadline, "sweep.point", position)
            results = run_point(passes, attack, x)
            self.cells_executed += len(results)
            points.append(ExperimentPoint(x=x, passes=results))
        return points

    def _run_pooled(self, base_table, protocol, attacks, seeds, deadline=None):
        """One pool task per seed, committed in seed order; in process, a
        seed's cells run through :func:`run_cell` on its hoisted pass."""
        workers = self.max_workers or os.cpu_count() or 1
        token = _table_token(base_table)
        by_seed: list[list[PassResult]] = []

        def in_process(seed: int) -> list[PassResult]:
            embedded = self.embedded_pass(base_table, protocol, seed, token)
            return [run_cell(embedded, attack, x) for x, attack in attacks]

        report = OrderedRun(
            _pool,
            # A new base relation retires the old pool: worker caches
            # are only valid for the table their initializer installed.
            lambda: _pool.ensure(token, workers, _worker_init, base_table),
            partial(_worker_run_seed, protocol, attacks),
            in_process,
            lambda seed, results: by_seed.append(results),
            workers=workers, label=POOL_LABEL, retry=self.retry,
            deadline=deadline, watchdog=self.watchdog,
            reliability=self.reliability,
        ).run(zip(seeds, seeds))
        self.reliability.cell_retries += report.redispatches * len(attacks)
        points = []
        for index, (x, _) in enumerate(attacks):
            results = [cells[index] for cells in by_seed]
            self.cells_executed += len(results)
            points.append(ExperimentPoint(x=x, passes=results))
        return points

    # -- the runner-shaped convenience --------------------------------------
    def sweep(
        self,
        base_table: Table,
        mark_attribute: str,
        e: int,
        attack_factory,
        xs: list[float],
        watermark_length: int = 10,
        passes: int = PAPER_PASSES,
        seed_offset: int = 0,
        ecc_name: str = "majority",
        variant: str = "keyed",
        mode: str | None = None,
        backend: str = VECTOR,
        deadline: Deadline | None = None,
    ) -> list[ExperimentPoint]:
        """Embed ``passes`` seeds once, attack at every ``x``.

        ``attack_factory(x)`` builds the (picklable) attack at parameter
        ``x``; attack randomness is decorrelated across cells by the
        per-cell ``random.Random(f"attack:{seed}:{x}")`` contract.
        ``backend`` selects the (bit-identical) execution backend of each
        pass's embed/verify.
        """
        protocol = SweepProtocol(
            mark_attribute=mark_attribute,
            e=e,
            watermark_length=watermark_length,
            ecc_name=ecc_name,
            variant=variant,
            backend=backend,
        )
        attacks = [(x, attack_factory(x)) for x in xs]
        seeds = range(seed_offset, seed_offset + passes)
        return self.run(
            base_table, protocol, attacks, seeds, mode=mode,
            deadline=deadline,
        )


# -- process-wide shared engine ----------------------------------------------

_shared_engine: SweepEngine | None = None


def get_sweep_engine() -> SweepEngine:
    """The process-wide :class:`SweepEngine` the public runner API uses.

    Sharing it is what lets successive sweeps in one process (a figure's
    two series, a bench run's four figures) reuse embedded passes and the
    persistent pool instead of starting cold.
    """
    global _shared_engine
    if _shared_engine is None:
        _shared_engine = SweepEngine()
    return _shared_engine


def reset_sweep_engine() -> None:
    """Drop the shared engine's caches and the pool (test isolation)."""
    global _shared_engine
    _shared_engine = None
    shutdown_sweep_pool()
