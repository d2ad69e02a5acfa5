"""The adversary's toolkit — attacks A1–A6 of §2.3 plus composites."""

from .addition import SubsetAdditionAttack
from .additive import AdditiveWatermarkAttack
from .alteration import SubsetAlterationAttack, TargetedValueAttack
from .base import (
    ATTACK_AUTO,
    ATTACK_BACKENDS,
    ATTACK_CODES,
    ATTACK_ROWS,
    Attack,
    IdentityAttack,
)
from .composite import CompositeAttack
from .horizontal import (
    DataLossAttack,
    HorizontalPartitionAttack,
    KeyRangePartitionAttack,
)
from .remap import BijectiveRemapAttack, PermutationRemapAttack
from .sorting import ShuffleAttack, SortAttack
from .vertical import SingleColumnAttack, VerticalPartitionAttack

__all__ = [
    "ATTACK_AUTO",
    "ATTACK_BACKENDS",
    "ATTACK_CODES",
    "ATTACK_ROWS",
    "AdditiveWatermarkAttack",
    "Attack",
    "BijectiveRemapAttack",
    "CompositeAttack",
    "DataLossAttack",
    "HorizontalPartitionAttack",
    "IdentityAttack",
    "KeyRangePartitionAttack",
    "PermutationRemapAttack",
    "ShuffleAttack",
    "SingleColumnAttack",
    "SortAttack",
    "SubsetAdditionAttack",
    "SubsetAlterationAttack",
    "TargetedValueAttack",
    "VerticalPartitionAttack",
]
