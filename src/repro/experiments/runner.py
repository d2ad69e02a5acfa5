"""Multi-pass experiment runner (public API over the sweep engine).

The paper's §5 protocol: every reported number "is the result of an
averaging process with 15 passes (each seeded with a different key), aimed
at smoothing out data-dependent biases and singularities".  The runner
reproduces that protocol: one pass = fresh key pair + fresh random
watermark + fresh attack randomness over the same base relation.

Since the sweep-engine rewrite this module is a thin protocol layer:
execution — embed hoisting, the persistent worker pool, the deterministic
serial reference — lives in :mod:`repro.experiments.sweepengine`, and a
sweep embeds each keyed pass *once*, sharing it copy-on-write across every
sweep point, instead of re-embedding per point.
"""

from __future__ import annotations

from ..attacks import Attack
from ..crypto import VECTOR
from ..relational import Table
from .sweepengine import (
    ExperimentPoint,
    PAPER_PASSES,
    PassResult,
    SweepProtocol,
    get_sweep_engine,
)

__all__ = [
    "ExperimentPoint",
    "PAPER_PASSES",
    "PassResult",
    "run_attack_experiment",
    "sweep",
]


def run_attack_experiment(
    base_table: Table,
    mark_attribute: str,
    e: int,
    attack: Attack,
    watermark_length: int = 10,
    passes: int = PAPER_PASSES,
    seed_offset: int = 0,
    ecc_name: str = "majority",
    variant: str = "keyed",
    mode: str | None = None,
    backend: str = VECTOR,
) -> list[PassResult]:
    """Embed, attack and verify ``passes`` times with per-pass keys.

    The base relation is shared (embedding clones it); keys, watermark bits
    and attack randomness differ per pass, exactly the paper's smoothing
    protocol.  Runs on the shared :class:`~repro.experiments.sweepengine
    .SweepEngine`, so each pass's embedding — and the warm
    :class:`~repro.crypto.HashEngine` behind it, via
    :func:`~repro.crypto.get_engine` — is reused by later experiments in
    the same process.  Outputs are bit-identical to the historical serial
    runner (the attack generator keeps its ``f"attack:{seed}"`` label).
    """
    protocol = SweepProtocol(
        mark_attribute=mark_attribute,
        e=e,
        watermark_length=watermark_length,
        ecc_name=ecc_name,
        variant=variant,
        backend=backend,
    )
    point = get_sweep_engine().run(
        base_table,
        protocol,
        [(None, attack)],
        range(seed_offset, seed_offset + passes),
        mode=mode,
    )[0]
    return point.passes


def sweep(
    base_table: Table,
    mark_attribute: str,
    e: int,
    attack_factory,
    xs: list[float],
    watermark_length: int = 10,
    passes: int = PAPER_PASSES,
    ecc_name: str = "majority",
    variant: str = "keyed",
    seed_offset: int = 0,
    mode: str | None = None,
    backend: str = VECTOR,
) -> list[ExperimentPoint]:
    """Run the paper's pass protocol for every x in ``xs``.

    ``attack_factory(x)`` builds the attack at parameter ``x`` (attack
    size, data-loss fraction, ...).  The same ``passes`` keyed embeddings
    are shared across all points — the paper's 15 keyed passes swept over
    the attack axis — and attack randomness is decorrelated per cell by
    the engine's ``random.Random(f"attack:{seed}:{x}")`` contract.
    """
    return get_sweep_engine().sweep(
        base_table,
        mark_attribute,
        e,
        attack_factory,
        xs,
        watermark_length=watermark_length,
        passes=passes,
        seed_offset=seed_offset,
        ecc_name=ecc_name,
        variant=variant,
        mode=mode,
        backend=backend,
    )
