"""Golden-vector and property tests for the derivation backbone.

The golden file was produced by the oracle below -- an independent
implementation over numpy uint64 wrapping arithmetic with the constants
written in decimal -- and the tests check both implementations against it.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher.errors import InvalidOrder

GOLDEN = json.loads((Path(__file__).parent / "data" / "seed_golden.json").read_text())

_INCREMENT = 11400714819323198485   # golden-ratio constant, decimal
_M1 = 13787848793156543929
_M2 = 10723151780598845931


def oracle_mix(z):
    z = np.uint64(z)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return int(z)


def oracle_fold(parts):
    state = np.uint64(0)
    result = 0
    with np.errstate(over="ignore"):
        for part in parts:
            state = state + np.uint64(part) + np.uint64(_INCREMENT)
            result = oracle_mix(state)
    return result


class OracleStream:
    def __init__(self, seed):
        self.state = np.uint64(seed)

    def draw(self):
        with np.errstate(over="ignore"):
            self.state = self.state + np.uint64(_INCREMENT)
        return oracle_mix(self.state)

    def below(self, n):
        cutoff = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.draw()
            if z < cutoff:
                return z % n


def oracle_permutation(seed, n):
    items = list(range(1, n + 1))
    stream = OracleStream(seed)
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@pytest.mark.parametrize("case", GOLDEN["fold"])
def test_derive_seed_matches_golden(case):
    assert qg.derive_seed(case["parts"]) == case["value"]


@pytest.mark.parametrize("case", GOLDEN["fold"])
def test_oracle_still_reproduces_golden(case):
    assert oracle_fold(case["parts"]) == case["value"]


def test_stream_matches_golden():
    stream = qg.SplitMix64(GOLDEN["stream"]["seed"])
    assert [stream.next_raw() for _ in GOLDEN["stream"]["draws"]] \
        == GOLDEN["stream"]["draws"]


def test_derive_seed_is_deterministic():
    assert qg.derive_seed([3, 1, 4]) == qg.derive_seed([3, 1, 4])


def test_derive_seed_distinguishes_inputs():
    assert qg.derive_seed([1]) != qg.derive_seed([2])
    assert qg.derive_seed([0]) != qg.derive_seed([0, 0])


def test_derive_seed_is_additive_over_parts():
    # Absorption is a running sum, so part order cannot matter; callers
    # domain-separate with position-dependent values instead.
    assert qg.derive_seed([0, 1]) == qg.derive_seed([1, 0])


def test_derive_seed_agrees_with_stream():
    # One-shot derivation of a single part equals the first stream draw.
    assert qg.derive_seed([12345]) == qg.SplitMix64(12345).next_raw()


def test_empty_parts_yield_zero():
    assert qg.derive_seed([]) == 0


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6))
def test_derive_seed_matches_oracle(parts):
    assert qg.derive_seed(parts) == oracle_fold(parts)


@pytest.mark.parametrize("case", GOLDEN["permutations"])
def test_permutation_matches_golden(case):
    perm = qg.permutation_from_seed(case["seed"], case["n"])
    assert list(perm.mapping) == case["mapping"]
    assert oracle_permutation(case["seed"], case["n"]) == case["mapping"]


def _shuffle(draws, n):
    items = list(range(1, n + 1))
    for i, j in zip(range(n - 1, 0, -1), draws):
        items[i], items[j] = items[j], items[i]
    return items


@given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=1, max_size=3),
       n=st.one_of(st.sampled_from([1, 2, 255, 256, 257, 4096]),
                   st.integers(min_value=1, max_value=600)))
@settings(max_examples=60, deadline=None)
def test_vector_draws_match_the_scalar_walk(seeds, n):
    draws, rejected = qg.seeds._vector_draws(seeds, n)
    assert rejected == [False] * len(seeds)
    assert draws == [qg.seeds._scalar_draws(seed, n) for seed in seeds]
    perms = qg.seeds.permutations_from_seeds(seeds, n)
    assert [list(p) for p in perms] == [_shuffle(d, n) for d in draws]


def _unmix64(z):
    """The inverse of mix64: undo each xor-shift and odd multiply."""
    mask = (1 << 64) - 1
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(_M2, -1, 1 << 64)) & mask
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(_M1, -1, 1 << 64)) & mask
    z ^= (z >> 30) ^ (z >> 60)
    return z


@pytest.mark.parametrize("n, k", [(3, 1), (100, 1), (100, 50), (257, 200)])
def test_rejected_draw_falls_back_to_the_stream_walk(n, k, monkeypatch):
    # Draw k of this seed is 2**64 - 1, the largest output, which
    # next_below rejects for every range m = n - k + 1 that is no power of
    # two; every later draw then comes one output late.
    state = _unmix64((1 << 64) - 1)
    seed = (state - k * _INCREMENT) % (1 << 64)
    assert qg.mix64(seed + k * _INCREMENT) == (1 << 64) - 1
    other = 12345
    _, rejected = qg.seeds._vector_draws([other, seed], n)
    assert rejected == [False, True]
    walked = []
    scalar = qg.seeds._scalar_draws
    monkeypatch.setattr(qg.seeds, "_scalar_draws",
                        lambda s, m: walked.append(s) or scalar(s, m))
    perms = qg.seeds.permutations_from_seeds([other, seed], n)
    assert walked == [seed]
    assert list(perms[1]) == oracle_permutation(seed, n)
    assert list(perms[0]) == oracle_permutation(other, n)
    assert qg.permutation_from_seed(seed, n).mapping == tuple(perms[1])


def test_permutation_size_one_is_identity():
    for seed in (0, 1, 2**63):
        assert qg.permutation_from_seed(seed, 1).mapping == (1,)


def test_permutation_rejects_bad_size():
    with pytest.raises(InvalidOrder):
        qg.permutation_from_seed(5, 0)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=30)
def test_permutation_is_bijection(seed):
    perm = qg.permutation_from_seed(seed, 100)
    assert sorted(perm.mapping) == list(range(1, 101))


def test_next_below_stays_in_range():
    stream = qg.SplitMix64(9)
    draws = [stream.next_below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_next_range_is_inclusive():
    stream = qg.SplitMix64(11)
    draws = [stream.next_range(3, 5) for _ in range(500)]
    assert set(draws) == {3, 4, 5}


def test_draw_ranges_fit_64_bits():
    # above 2**64 the rejection limit would be 0 and no draw would be kept
    stream = qg.SplitMix64(11)
    assert 0 <= stream.next_below(1 << 64) < 1 << 64
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        stream.next_below((1 << 64) + 1)
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        stream.next_range(0, 1 << 64)


def test_empty_draw_ranges_are_rejected():
    stream = qg.SplitMix64(11)
    with pytest.raises(ValueError, match="range size must be positive, got 0"):
        stream.next_below(0)
    with pytest.raises(ValueError, match=r"empty range \[5, 4\]"):
        stream.next_range(5, 4)
