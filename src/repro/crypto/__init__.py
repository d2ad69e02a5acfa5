"""Cryptographic substrate: keyed one-way hashing, bit utilities, keys.

Implements §2.1 (notation: ``b``, ``msb``, ``set_bit``) and §2.2
(``H(V,k) = crypto_hash(k;V;k)``) of the paper.
"""

from .bits import (
    bit_length,
    bits_to_int,
    get_bit,
    int_to_bits,
    msb,
    set_bit,
)
from .engine import (
    BACKENDS,
    SCALAR,
    VECTOR,
    HashEngine,
    KeyedDigestCache,
    clear_engine_registry,
    get_digest_cache,
    get_engine,
    resolve_backend,
    resolve_engine,
    stack_cache_info,
)
from .hashing import canonical_bytes, crypto_hash, keyed_hash, keyed_hash_mod
from .keys import KeyError_, MarkKey
from .prng import keyed_rng, seeded_rng

__all__ = [
    "BACKENDS",
    "SCALAR",
    "VECTOR",
    "HashEngine",
    "KeyError_",
    "KeyedDigestCache",
    "MarkKey",
    "bit_length",
    "bits_to_int",
    "canonical_bytes",
    "clear_engine_registry",
    "crypto_hash",
    "get_bit",
    "get_digest_cache",
    "get_engine",
    "int_to_bits",
    "keyed_hash",
    "keyed_hash_mod",
    "keyed_rng",
    "msb",
    "resolve_backend",
    "resolve_engine",
    "seeded_rng",
    "set_bit",
    "stack_cache_info",
]
