"""Deterministic 64-bit derivation backbone.

Everything random-looking in this package (table selection, key frames,
hidden keys) is derived from explicit seeds through the functions here, so
two independent processes -- or two ends of a network -- reproduce the same
values bit for bit.  The pipeline is SplitMix64: a golden-ratio increment
absorbed into a 64-bit state, finalized with the standard three-round
xor-shift-multiply mixer.  All arithmetic wraps at 64 bits.
"""

from __future__ import annotations

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

    Starting from state 0, each part is absorbed by adding it and then the
    golden-ratio constant to the state; the finalizer runs once, on the
    final state (0 for an empty sequence, since the finalizer fixes 0).
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
    state = 0
    for part in parts:
        state = (state + (int(part) & MASK64) + GOLDEN) & MASK64
    return mix64(state)


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
        draws bias-free and identical on every platform.
        """
        if n < 1:
            raise ValueError(f"range size must be positive, got {n}")
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


def permutation_from_seed(seed: int, n: int) -> Permutation:
    """Deterministic Fisher-Yates shuffle of (1..n) driven by SplitMix64.

    Walks i from n-1 down to 1, drawing j uniformly in [0, i] with
    rejection sampling and swapping positions i and j.
    """
    if n < 1:
        raise InvalidOrder(f"permutation size must be >= 1, got {n}")
    items = list(range(1, n + 1))
    stream = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = stream.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    return Permutation(tuple(items))
