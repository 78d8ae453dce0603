import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher import analysis
from qgcipher.errors import EmptyStream, UnknownCase

# Documented seed for the pinned scrambling checks (constant-ish input
# through the default profile).
PINNED_SEED = 7


def naive_autocorrelation(symbols, max_lag):
    # straight O(N*K) double loop, the defining sum
    n = len(symbols)
    mu = sum(symbols) / n
    out = []
    for k in range(min(max_lag, n - 1) + 1):
        total = 0.0
        for i in range(n - k):
            total += (symbols[i] - mu) * (symbols[i + k] - mu)
        out.append(total)
    return out


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def exact_autocorrelation(symbols, max_lag):
    # R(k) = P_k - mu (A_k + B_k) + (n - k) mu^2 in rationals, with the lag
    # product P_k as a direct integer dot (int64 is exact for symbols
    # below 2^16 and n below 2^31), rounded once to float
    x = np.asarray(symbols, dtype=np.int64)
    n = len(x)
    mu = Fraction(int(x.sum()), n)
    out = []
    for k in range(min(max_lag, n - 1) + 1):
        head, tail = x[:n - k], x[k:]
        exact = (int(np.dot(head, tail)) - mu * (int(head.sum()) + int(tail.sum()))
                 + (n - k) * mu * mu)
        out.append(float(exact))
    return out


def _symbols(order, n, seed, extremes):
    # extremes: only 1 and order, the largest deviations the order allows
    rng = np.random.default_rng(seed)
    if extremes:
        return tuple(np.where(rng.integers(0, 2, n) == 1, order, 1).tolist())
    return tuple(rng.integers(1, order + 1, n).tolist())


# --- autocorrelation ---------------------------------------------------------------

def test_constant_stream_has_zero_autocorrelation():
    report = qg.autocorrelation(qg.SymbolStream(10, (4,) * 50), 10)
    assert np.allclose(report.values, 0.0)
    assert np.allclose(report.normalized, 0.0)


def test_alternating_stream_signs():
    stream = qg.SymbolStream(2, (1, 2) * 50)
    report = qg.autocorrelation(stream, 2)
    oracle = naive_autocorrelation(list(stream.symbols), 2)
    assert report.values[1] < 0
    assert report.values[2] > 0
    for got, want in zip(report.values, oracle):
        assert _close(got, want)


def test_single_element_stream():
    report = qg.autocorrelation(qg.SymbolStream(5, (3,)), 4)
    assert list(report.lags) == [0]
    assert report.values[0] == 0.0


def test_lag_truncation_and_normalization():
    report = qg.autocorrelation(qg.SymbolStream(4, (1, 2, 3, 4, 2, 1)), 100)
    assert list(report.lags) == [0, 1, 2, 3, 4, 5]
    assert report.normalized[0] == 1.0
    assert report.values[0] > 0
    assert report.length == 6
    assert report.mean == pytest.approx(13 / 6)


def test_empty_stream_is_rejected():
    with pytest.raises(EmptyStream):
        qg.autocorrelation(qg.SymbolStream(4, ()), 3)
    with pytest.raises(EmptyStream):
        qg.entropy(qg.SymbolStream(4, ()))


def test_negative_max_lag_is_rejected():
    with pytest.raises(ValueError, match="max_lag must be >= 0, got -1"):
        qg.autocorrelation(qg.SymbolStream(4, (1, 2, 3)), -1)


def test_autocorrelation_matches_naive_oracle():
    stream_src = qg.SplitMix64(2718)
    for _ in range(20):
        n = stream_src.next_range(2, 400)
        order = stream_src.next_range(2, 40)
        symbols = tuple(stream_src.next_range(1, order) for _ in range(n))
        stream = qg.SymbolStream(order, symbols)
        k = stream_src.next_range(0, 30)
        report = qg.autocorrelation(stream, k)
        oracle = naive_autocorrelation(list(symbols), k)
        assert len(report.values) == len(oracle)
        for got, want in zip(report.values, oracle):
            assert _close(got, want)


@given(data=st.data(), order=st.integers(2, 65535),
       seed=st.integers(0, 2**32 - 1), extremes=st.booleans())
@settings(max_examples=40, deadline=None)
def test_autocorrelation_is_exact(data, order, seed, extremes):
    # lengths past 32,768 are longer than one FFT block for most lags
    n = data.draw(st.one_of(st.integers(1, 300), st.integers(32_800, 36_000)),
                  label="n")
    max_lag = data.draw(st.integers(0, n - 1), label="max_lag")
    symbols = _symbols(order, n, seed, extremes)
    report = qg.autocorrelation(qg.SymbolStream(order, symbols), max_lag)
    assert report.values.tolist() == exact_autocorrelation(symbols, max_lag)


def test_autocorrelation_is_exact_on_the_digit_split():
    # order-65535 extremes at this many lags are too wide for one FFT pass
    symbols = _symbols(65535, 20_000, 11, extremes=True)
    y = np.asarray(symbols, dtype=np.int64) - sum(symbols) // len(symbols)
    assert analysis._lag_products(y, 19_999).dtype == object
    report = qg.autocorrelation(qg.SymbolStream(65535, symbols), 19_999)
    assert report.values.tolist() == exact_autocorrelation(symbols, 19_999)


@pytest.mark.parametrize("order, n", [(2, 1), (65535, 1), (41, 300),
                                      (65535, 40_000)])
def test_constant_stream_is_exactly_zero(order, n):
    report = qg.autocorrelation(qg.SymbolStream(order, (order,) * n), 30_000)
    assert len(report.values) == min(30_000, n - 1) + 1
    assert not report.values.any()
    assert not report.normalized.any()
    assert report.mean == order


# --- entropy and histogram ------------------------------------------------------------

def test_entropy_examples():
    assert qg.entropy(qg.SymbolStream(9, (6,) * 12)) == 0.0
    assert qg.entropy(qg.SymbolStream(2, (1, 2))) == 1.0
    assert qg.entropy(qg.SymbolStream(4, (1, 1, 2, 2, 3, 3, 4, 4))) == 2.0


def test_entropy_of_a_constant_stream_is_positive_zero():
    assert math.copysign(1.0, qg.entropy(qg.SymbolStream(9, (6,) * 12))) == 1.0


def test_histogram_counts():
    assert qg.histogram(qg.SymbolStream(3, (1, 1, 2))) == {1: 2, 2: 1, 3: 0}
    assert qg.histogram(qg.SymbolStream(2, ())) == {1: 0, 2: 0}
    counts = qg.histogram(qg.SymbolStream(5, (5, 5, 1)))
    assert sum(counts.values()) == 3


def test_scrambled_histogram_is_spread(profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    out = qg.encrypt(profile, frame, key, qg.SymbolStream(frame.r, (5,) * 500))
    nonzero = sum(1 for count in qg.histogram(out).values() if count)
    assert nonzero >= math.ceil(frame.s / 2)


# --- pinned scrambling thresholds --------------------------------------------------------

def test_constant_input_autocorrelation_collapses(profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    out = qg.encrypt(profile, frame, key, qg.SymbolStream(frame.r, (5,) * 500))
    report = qg.autocorrelation(out, 20)
    peak = max(abs(v) for v in report.normalized[1:])
    assert peak <= 0.25


def test_constant_input_entropy_is_high(profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    out = qg.encrypt(profile, frame, key, qg.SymbolStream(frame.r, (5,) * 1000))
    assert qg.entropy(out) >= 0.8 * math.log2(frame.s)


def test_constant_input_scrambling_holds_on_frame_seeds_1_to_1000(profile):
    # Criterion 7's input and thresholds over a fixed range of frame seeds,
    # so the pinned seed 7 is not a lucky frame.  The range never moves.
    failures = []
    for seed in range(1, 1001):
        frame = qg.generate_frame(profile, seed)
        key = qg.derive_hidden_key(profile, frame)
        out = qg.encrypt(profile, frame, key, qg.SymbolStream(frame.r, (5,) * 500))
        peak = max(abs(v) for v in qg.autocorrelation(out, 20).normalized[1:])
        if (len(set(out.symbols)) < math.ceil(frame.s / 2)
                or qg.entropy(out) < 0.8 * math.log2(frame.s) or peak > 0.25):
            failures.append(seed)
    assert failures == []


# --- demonstration cases -------------------------------------------------------------------

def test_case_inputs_are_pinned():
    assert qg.CASE_INPUTS[1] == "K K K K K K K K K K K "
    assert qg.CASE_INPUTS[1] == "K " * 11
    assert qg.CASE_INPUTS[2] == "OOM NAMAH SHIVAYA"
    assert qg.CASE_INPUTS[3] == "E M V C W J F A Z"
    assert len(qg.CASE_INPUTS[5]) == 283
    assert qg.CASE_INPUTS[5].startswith("ONE DAY A COUNTRYMAN")
    assert qg.CASE_INPUTS[6] == "E" * 300
    assert sorted(qg.CASE_INPUTS) == [1, 2, 3, 5, 6]


def test_unknown_case(profile):
    frame = qg.generate_frame(profile, 1)
    key = qg.derive_hidden_key(profile, frame)
    with pytest.raises(UnknownCase):
        qg.run_case(4, profile, frame, key)


@pytest.mark.parametrize("case_id", [1, 2, 3, 5, 6])
def test_cases_run_and_report(case_id, profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    report = qg.run_case(case_id, profile, frame, key, max_lag=10)
    assert report.case_id == case_id
    assert len(report.output_stream) == len(report.input_stream)
    assert report.output_stream.order == frame.s
    assert 0.0 <= report.input_entropy <= math.log2(report.input_stream.order)
    assert 0.0 <= report.output_entropy <= math.log2(report.output_stream.order)
    assert report.output_distinct >= report.input_distinct


def test_case_csv_shape(profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    csv = qg.run_case(6, profile, frame, key, max_lag=12).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "lag,raw_R,raw_norm,enc_R,enc_norm"
    assert len(lines) == 14  # header + lags 0..12
    row = lines[3].split(",")
    assert int(row[0]) == 2
    # constant input: raw column is exactly zero
    assert float(row[1]) == 0.0
    assert float(row[2]) == 0.0


def test_round_trip_recovers_case_text(profile):
    frame = qg.generate_frame(profile, PINNED_SEED)
    key = qg.derive_hidden_key(profile, frame)
    report = qg.run_case(2, profile, frame, key)
    back = qg.decrypt(profile, frame, key, report.output_stream)
    assert qg.symbols_to_text(
        qg.SymbolStream(41, back.symbols), qg.LATIN41) == qg.CASE_INPUTS[2]
