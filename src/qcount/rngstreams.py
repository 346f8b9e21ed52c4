"""Counter-based random streams for reproducible sampling.

Every stochastic routine takes a 64-bit seed and derives its draws from a
Philox counter generator.  Independent runs (oracle queries) use jumped
substreams: stream(seed, j) advances the counter by j * 2**128, so run j
sees the same bits no matter how many runs execute, in what order, or
on how many workers.  stream(seed, 0) is the base stream itself.  A
sampler reads its uniforms chunk by chunk through one buffer of at most
DRAW_CHUNK doubles (uniform_chunks, index_chunks), so its draws hold no
memory per sample and still equal one rng.random(count), in order.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

MAX_SEED = 2**64 - 1
DRAW_CHUNK = 2**14  # uniforms per refill of a sampler's draw buffer


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


def uniform_chunks(rng: np.random.Generator, count: int):
    """The next `count` uniforms, as (columns, chunk) pairs through one reused buffer.

    `columns` is the slice of the count a chunk fills; the next chunk
    overwrites it.
    """
    buf = np.empty(min(count, DRAW_CHUNK))
    for start in range(0, count, len(buf)):
        u = buf[: count - start]
        rng.random(out=u)
        yield slice(start, start + len(u)), u


def index_chunks(rng: np.random.Generator, count: int, bits: int):
    """The next `count` exact-uniform integers in [0, 2**bits), as float chunks.

    floor(u * 2**bits) is exactly uniform because numpy uniforms are
    k / 2**53 with k uniform: one draw per index, no rejection, while
    bits <= 53, which is checked here, before any draw.
    """
    if bits > 53:
        raise PreconditionError(f"bound must be in (0, 2**53], got {1 << bits}")
    return (
        (cols, np.floor(np.multiply(u, 1 << bits, out=u), out=u))
        for cols, u in uniform_chunks(rng, count)
    )
