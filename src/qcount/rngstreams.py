"""Counter-based random streams for reproducible sampling.

Every stochastic routine takes a 64-bit seed and derives its draws from a
Philox counter generator.  Independent repetitions (median runs, oracle
queries) use jumped substreams: stream(seed, j) advances the counter by
j * 2**128, so run j sees the same bits no matter how many runs execute,
in what order, or on how many workers.  stream(seed, 0) is the base
stream itself, which is what makes a 1-run median coincide exactly with
the underlying estimator.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> None:
    """Reject a seed outside the 64 bits of a Philox key."""
    if not 0 <= seed <= MAX_SEED:
        raise PreconditionError(f"seed must fit in 64 bits, got {seed}")


def stream(seed: int, jump: int = 0) -> np.random.Generator:
    """Generator for substream `jump` of the given seed."""
    check_seed(seed)
    bg = np.random.Philox(key=seed)
    if jump:
        bg = bg.jumped(jump)
    return np.random.Generator(bg)


def uniform_indices(rng: np.random.Generator, bound: int, size: int) -> np.ndarray:
    """`size` exact-uniform integers in [0, bound) from single draws.

    floor(u * bound) is exactly uniform because numpy uniforms are
    k / 2**53 with k uniform and bound here is always a power of two
    not exceeding 2**53.  One counter word per sample, no rejection.
    """
    if not 0 < bound <= 2**53:
        raise PreconditionError(f"bound must be in (0, 2**53], got {bound}")
    return np.floor(rng.random(size) * bound).astype(np.int64)
