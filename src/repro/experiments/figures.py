"""Series generators for the paper's Figures 4–7.

Each function regenerates the data series of one figure on synthetic
``ItemScan`` data (the paper used a Wal-Mart subsample of the same shape;
see DESIGN.md §5 for the substitution argument).  Absolute percentages are
not expected to match the paper — the data and ECC constants differ — but
the shapes are: graceful degradation with attack size (Fig 4), resilience
improving as ``e`` decreases (Fig 5), the tilted surface (Fig 6), and
near-linear degradation under data loss with ≈25% alteration at 80% loss
(Fig 7).

All series run on the shared :class:`~repro.experiments.sweepengine
.SweepEngine`: each keyed pass is embedded once and reused across every
sweep point (and across the figures of one bench run, which share the
same base relation).  ``mode`` forwards the engine's execution mode —
``"serial"`` for the re-embed-per-cell reference, ``"hoisted"`` /
``"pooled"`` to force a path, ``None`` for auto — and ``backend`` the
(bit-identical) execution backend of every pass's embed/verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..attacks import DataLossAttack, SubsetAlterationAttack
from ..crypto import VECTOR
from ..datagen import generate_item_scan
from .runner import ExperimentPoint, PAPER_PASSES, sweep

#: the paper's experimental constants (§5)
WATERMARK_LENGTH = 10
DEFAULT_TUPLES = 6000
DEFAULT_ITEMS = 500
#: the paper's working estimate for the bit-kill probability of an alteration
FLIP_PROBABILITY = 0.7


@dataclass(frozen=True)
class FigureConfig:
    """Workload sizing shared by all figure series."""

    tuple_count: int = DEFAULT_TUPLES
    item_count: int = DEFAULT_ITEMS
    passes: int = PAPER_PASSES
    watermark_length: int = WATERMARK_LENGTH
    data_seed: int = 7

    def base_table(self):
        return generate_item_scan(
            self.tuple_count, self.item_count, seed=self.data_seed
        )


def figure4_series(
    config: FigureConfig = FigureConfig(),
    e_values: tuple[int, ...] = (65, 35),
    attack_sizes: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    mode: str | None = None,
    backend: str = VECTOR,
) -> dict[int, list[ExperimentPoint]]:
    """Figure 4: mark alteration vs attack size, one series per ``e``."""
    table = config.base_table()
    series: dict[int, list[ExperimentPoint]] = {}
    for e in e_values:
        series[e] = sweep(
            table,
            "Item_Nbr",
            e,
            lambda size: SubsetAlterationAttack(
                "Item_Nbr", size, FLIP_PROBABILITY
            ),
            list(attack_sizes),
            watermark_length=config.watermark_length,
            passes=config.passes,
            mode=mode,
            backend=backend,
        )
    return series


def figure5_series(
    config: FigureConfig = FigureConfig(),
    e_values: tuple[int, ...] = (10, 25, 50, 75, 100, 125, 150, 175, 200),
    attack_sizes: tuple[float, ...] = (0.55, 0.20),
    mode: str | None = None,
    backend: str = VECTOR,
) -> dict[float, list[ExperimentPoint]]:
    """Figure 5: mark alteration vs ``e``, one series per attack size.

    Note the x-axis here is ``e`` (the sweep variable), so each point of the
    returned series carries ``x = e``.
    """
    table = config.base_table()
    series: dict[float, list[ExperimentPoint]] = {}
    for attack_size in attack_sizes:
        points: list[ExperimentPoint] = []
        for e in e_values:
            results = sweep(
                table,
                "Item_Nbr",
                e,
                lambda size: SubsetAlterationAttack(
                    "Item_Nbr", size, FLIP_PROBABILITY
                ),
                [attack_size],
                watermark_length=config.watermark_length,
                passes=config.passes,
                mode=mode,
                backend=backend,
            )[0]
            points.append(ExperimentPoint(x=float(e), passes=results.passes))
        series[attack_size] = points
    return series


def figure6_surface(
    config: FigureConfig = FigureConfig(),
    e_values: tuple[int, ...] = (20, 65, 110, 155, 200),
    attack_sizes: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8),
    mode: str | None = None,
    backend: str = VECTOR,
) -> list[tuple[int, float, float]]:
    """Figure 6: the (attack size × e) → mark-loss surface.

    Returns ``(e, attack_size, mean_alteration)`` triples in row-major
    order (e outer, attack size inner).
    """
    table = config.base_table()
    surface: list[tuple[int, float, float]] = []
    for e in e_values:
        points = sweep(
            table,
            "Item_Nbr",
            e,
            lambda size: SubsetAlterationAttack(
                "Item_Nbr", size, FLIP_PROBABILITY
            ),
            list(attack_sizes),
            watermark_length=config.watermark_length,
            passes=config.passes,
            mode=mode,
            backend=backend,
        )
        for point in points:
            surface.append((e, point.x, point.mean_alteration))
    return surface


def figure7_series(
    config: FigureConfig = FigureConfig(),
    e: int = 65,
    loss_fractions: tuple[float, ...] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
    ),
    mode: str | None = None,
    backend: str = VECTOR,
) -> list[ExperimentPoint]:
    """Figure 7: mark alteration vs data loss (attack A1).

    The headline claim lives at the right edge: "tolerating up to 80% data
    loss with a watermark alteration of only 25%".
    """
    table = config.base_table()
    return sweep(
        table,
        "Item_Nbr",
        e,
        lambda loss: DataLossAttack(loss),
        list(loss_fractions),
        watermark_length=config.watermark_length,
        passes=config.passes,
        mode=mode,
        backend=backend,
    )
