"""Deterministic named-stream RNG derivation.

Every source of randomness in the package derives its generator from a root
seed plus a path of string/int tags, so changing execution order or running
components in parallel cannot change any result.
"""

import hashlib

import numpy as np

from .errors import check, integer

_NATURAL, _ = integer(0)
# a root seed is hashed as 8 unsigned bytes
SEED_RULE = (lambda v: _NATURAL(v) and v < 2 ** 64, "an integer in [0, 2^64)")


def derive_seed(root_seed: int, *tags) -> int:
    """Derive a 128-bit child seed from a root seed and a tag path."""
    check("seed", root_seed, SEED_RULE)
    h = hashlib.sha256()
    h.update(int(root_seed).to_bytes(8, "little", signed=False))
    h.update("/".join(str(t) for t in tags).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "little")


def child_rng(root_seed: int, *tags) -> np.random.Generator:
    """A numpy Generator for the stream named by ``tags`` under ``root_seed``."""
    return np.random.default_rng(derive_seed(root_seed, *tags))
