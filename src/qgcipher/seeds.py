"""Deterministic 64-bit derivation backbone.

Everything random-looking in this package (table selection, key frames,
hidden keys) is derived from explicit seeds through the functions here, so
two independent processes -- or two ends of a network -- reproduce the same
values bit for bit.  The pipeline is SplitMix64: a golden-ratio increment
absorbed into a 64-bit state, finalized with the standard three-round
xor-shift-multiply mixer.  All arithmetic wraps at 64 bits.

SplitMix64 is counter-based: its k-th output is mix64(seed + k * GOLDEN),
a function of k alone (Steele, Lea & Flood, OOPSLA 2014; Salmon et al.,
SC 2011).  permutations_from_seeds uses this to compute every draw of a
Fisher-Yates shuffle at once, for several seeds, in numpy uint64; only the
swaps stay a Python loop.  Draw k is reduced modulo m = n - k + 1, and a
draw at or above the largest multiple of m below 2**64 would be rejected
by SplitMix64.next_below and shift every later draw.  Such a seed is
shuffled again by the scalar stream walk, so both paths give the same
permutation; the chance of a rejection is below m / 2**64 per draw.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidOrder
from .latin import Permutation

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The SplitMix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(parts) -> int:
    """Fold a sequence of 64-bit words into a single 64-bit value.

    The result is mix64((sum of parts + count * GOLDEN) mod 2**64): each
    part and the golden-ratio constant are added to a state that starts
    at 0, and the finalizer runs once (0 for no parts, since it fixes 0).
    derive_seed([x]) equals the first output of SplitMix64(x), so stream
    draws and one-shot derivations agree.

    Absorption is additive only: the result depends on the parts' sum and
    count, not on their order or position.  Distinct inputs with the same
    sum alias.  With qgdb's parts (db_seed, order, index, nonce, tag),
    derive_seed((1, 64, 6, 0, 1)) equals derive_seed((1, 64, 5, 0, 2)), so
    the row permutation of index 6 is the column permutation of index 5.
    The pinned outputs depend on this behaviour; positional absorption is
    ROADMAP item 3 (seed derivation v2).
    """
    parts = [int(part) & MASK64 for part in parts]
    return mix64(sum(parts) + len(parts) * GOLDEN)


class SplitMix64:
    """The stream form of the pipeline: state += GOLDEN, output = mix64(state)."""

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def next_raw(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection sampling.

        Raw draws at or above the largest multiple of n below 2**64 are
        discarded, so every residue is exactly equally likely; this keeps
        draws bias-free and identical on every platform.  n is at most
        2**64, the number of raw values; above it no draw would be kept.
        """
        if n < 1:
            raise ValueError(f"range size must be positive, got {n}")
        if n > 1 << 64:
            raise ValueError(f"range size must be at most 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_raw()
            if z < limit:
                return z % n

    def next_range(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_below(hi - lo + 1)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a numpy uint64 array, whose arithmetic wraps at 64 bits."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _scalar_draws(seed: int, n: int) -> list:
    """The Fisher-Yates draws of one seed, by walking its SplitMix64 stream:
    j uniform in [0, m) for m = n, n-1, ..., 2."""
    stream = SplitMix64(seed)
    return [stream.next_below(m) for m in range(n, 1, -1)]


def _vector_draws(seeds: list, n: int) -> tuple:
    """The same draws for every seed at once, as the k-th stream outputs
    reduced modulo m = n - k + 1.  Returns the draw lists and, per seed,
    whether some draw would have been rejected (which makes its row wrong)."""
    state = (np.array(seeds, dtype=np.uint64)[:, None]
             + np.arange(1, n, dtype=np.uint64) * np.uint64(GOLDEN))
    z = _mix64_array(state)
    m = np.arange(2, n + 1, dtype=np.uint64)[::-1]
    # z >= 2**64 - (2**64 mod m), written so that it fits 64 bits
    rejected = (~z < (np.uint64(0) - m) % m).any(axis=1)
    return (z % m).tolist(), rejected.tolist()


def permutations_from_seeds(seeds, n: int) -> list:
    """Deterministic Fisher-Yates shuffles of (1..n), one list per seed.

    Each walks i from n-1 down to 1, drawing j uniformly in [0, i] from the
    seed's SplitMix64 stream with rejection sampling and swapping positions
    i and j.  The draws are computed at once (see the module docstring).
    """
    if n < 1:
        raise InvalidOrder(f"permutation size must be >= 1, got {n}")
    seeds = [int(seed) & MASK64 for seed in seeds]
    draws, rejected = _vector_draws(seeds, n)
    perms = []
    for seed, js, bad in zip(seeds, draws, rejected):
        if bad:
            js = _scalar_draws(seed, n)
        items = list(range(1, n + 1))
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]
        perms.append(items)
    return perms


def permutation_from_seed(seed: int, n: int) -> Permutation:
    """The Fisher-Yates shuffle of (1..n) for one seed."""
    return Permutation(tuple(permutations_from_seeds([seed], n)[0]))
