"""Randomization measurements.

The yardstick is the mean-subtracted, unnormalized autocorrelation
R(k) = sum_i (x_i - mu)(x_{i+k} - mu); a well-scrambled stream has |R(k)|
collapsing toward zero for every positive lag.  The normalized ratio
R(k)/R(0) is exposed alongside for threshold tests, together with symbol
histograms and empirical Shannon entropy.

A measurement reads a stream's symbol tuple into numpy once (_as_array).
A report reads each of its two streams once, in turn, and takes the
stream's autocorrelation, entropy and distinct-symbol count from that one
array and its one bincount.

run_case() drives the built-in demonstration inputs -- highly redundant
and random text samples -- through the full encryptor and reports both
sides.  Case numbering skips 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import SymbolStream, encrypt, text_to_symbols
from .errors import EmptyStream, UnknownCase
from .keying import HiddenKey, KeyFrame
from .qgdb import LATIN41, NetworkProfile

# Highest lag a report covers when the caller names none.
DEFAULT_MAX_LAG = 20


@dataclass(frozen=True)
class AutocorrelationReport:
    lags: np.ndarray
    values: np.ndarray       # R(0)..R(K), unnormalized
    normalized: np.ndarray   # R(k)/R(0), zeros when R(0) == 0
    mean: float
    length: int


def _as_array(stream: SymbolStream) -> np.ndarray:
    """The stream's symbols as a fresh int64 array, read from the tuple in
    one pass with no type inference."""
    return np.fromiter(stream.symbols, dtype=np.int64, count=len(stream))


def autocorrelation(stream: SymbolStream, max_lag: int) -> AutocorrelationReport:
    """Mean-subtracted, unnormalized autocorrelation up to max_lag.

    Lags past length-1 are truncated.  R(0) is the sum of squared
    deviations, so it is nonnegative and zero exactly for constant streams.

    Every value is the correctly rounded exact R(k), with no BLAS call.
    R(k) is the same for y_i = x_i - c as for x, and for integers y,
    n^2 R(k) = n^2 P_k - n S (A_k + B_k) + (n - k) S^2 is an integer, where
    P_k = sum_i y_i y_{i+k}, S = sum_i y_i, and A_k, B_k are the sums of
    y[:n-k] and y[k:].  c is the integer floor of the mean, which keeps the
    FFT inputs of _lag_products small; the quotient by n^2 is taken in
    Python ints.
    """
    return _autocorrelation(_as_array(stream), max_lag)


def _autocorrelation(x: np.ndarray, max_lag: int) -> AutocorrelationReport:
    """autocorrelation() of the int64 symbols x, which it shifts in place
    by the floor of their mean, so x is changed."""
    n = len(x)
    if n == 0:
        raise EmptyStream("cannot autocorrelate an empty stream")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    k_max = min(max_lag, n - 1)
    total = int(x.sum())
    shift, s = divmod(total, n)     # s = sum of the shifted symbols
    x -= shift
    # A_k + B_k = 2S - (sum of the first k) - (sum of the last k)
    ends = np.zeros(k_max + 1, dtype=np.int64)
    np.cumsum(x[:k_max] + x[::-1][:k_max], out=ends[1:])
    nn = n * n
    values = np.array([
        (nn * p - n * s * (2 * s - e) + (n - k) * s * s) / nn
        for k, (p, e) in enumerate(zip(_lag_products(x, k_max).tolist(),
                                       ends.tolist()))])
    r0 = values[0]
    normalized = values / r0 if r0 > 0 else np.zeros_like(values)
    return AutocorrelationReport(lags=np.arange(k_max + 1), values=values,
                                 normalized=normalized, mean=total / n, length=n)


def _lag_products(y: np.ndarray, k_max: int) -> np.ndarray:
    """P_k = sum_i y_i y_{i+k} for k = 0..k_max, exactly, from int64 y.

    FFT correlation in float64 gives P_k exactly after np.rint when its
    error is below 1/2.  For a transform of length L = 2^m, Percival (Math.
    Comp. 72, 2003) bounds the error of an FFT convolution of a and b by
    ||a|| ||b|| ((1+e)^3m (1+e sqrt5)^(3m+1) (1+t)^3m - 1), with e = 2^-53
    and t the error of the twiddle factors; for t <= e that is about
    ||a|| ||b|| e (12.8 m + 2.3).  Each block correlates at most L values
    against at most L values, so ||a|| ||b|| <= L max|y|^2, and the guard
    below asks for L max|y|^2 (13 (m+1) + 3) < 2^52.  When y is too wide
    for that, it is split into a high and a low digit, y = hi 2^b + lo, and
    P(y) = P(hi) 2^2b + (P(hi+lo) - P(hi) - P(lo)) 2^b + P(lo), each digit
    product exact in turn.  Symbols up to 65535 need at most one split for
    up to about 2^24 lags.  Any L above k_max is exact; L is the power of
    two at least min(len(y), max(2^14, k_max + 1)) + k_max, so that a block
    steps over at least that many values and the blocks stay few.
    """
    size = 1 << (min(len(y), max(1 << 14, k_max + 1)) + k_max - 1).bit_length()
    peak = max(-int(y.min()), int(y.max()))
    if size * peak * peak * (13 * size.bit_length() + 3) < 1 << 52:
        return _blocked_lag_products(y, k_max, size)
    b = (peak.bit_length() + 1) // 2
    hi, lo = y >> b, y & ((1 << b) - 1)
    p_hi, p_lo, p_mid = (_lag_products(digit, k_max).astype(object)
                         for digit in (hi, lo, hi + lo))
    return (p_hi << 2 * b) + ((p_mid - p_hi - p_lo) << b) + p_lo


def _blocked_lag_products(y: np.ndarray, k_max: int, size: int) -> np.ndarray:
    """Lag products block by block.  Each block's head, its size - k_max
    values, is correlated against its window, the head and the k_max values
    after it, zero-padded to size, so no lag wraps around the transform."""
    rfft, irfft = np.fft.rfft, np.fft.irfft
    step = size - k_max
    out = np.zeros(k_max + 1, dtype=np.int64)
    block = np.empty(size)
    for start in range(0, len(y), step):
        window = y[start:start + step + k_max]
        block[:len(window)] = window
        block[len(window):] = 0
        spectrum = rfft(block)
        block[step:] = 0                        # now the head alone
        spectrum *= np.conjugate(rfft(block))
        out += np.rint(irfft(spectrum, size)[:k_max + 1]).astype(np.int64)
    return out


def entropy(stream: SymbolStream) -> float:
    """Empirical Shannon entropy in bits."""
    return _entropy(np.bincount(_as_array(stream)), len(stream))


def _entropy(counts: np.ndarray, n: int) -> float:
    """entropy() from the bincount of a stream of n symbols."""
    if n == 0:
        raise EmptyStream("cannot take the entropy of an empty stream")
    p = counts[counts > 0] / n
    return float(0.0 - (p * np.log2(p)).sum())


def histogram(stream: SymbolStream) -> dict:
    """Counts per symbol 1..order (zeros included); counts sum to the length."""
    counts = np.bincount(_as_array(stream), minlength=stream.order + 1)
    return {sym: int(counts[sym]) for sym in range(1, stream.order + 1)}


def _measure(stream: SymbolStream, max_lag: int) -> tuple:
    """(autocorrelation, entropy, distinct-symbol count) of one stream, read
    into numpy once."""
    x = _as_array(stream)
    counts = np.bincount(x)         # before _autocorrelation shifts x
    return (_autocorrelation(x, max_lag), _entropy(counts, len(x)),
            int(np.count_nonzero(counts)))


# --- demonstration cases -------------------------------------------------------

CASE_INPUTS = {
    # Two-valued: the letter K followed by a space, eleven times (the
    # trailing space is part of the input).
    1: "K " * 11,
    # Short plain text with repeated letters.
    2: "OOM NAMAH SHIVAYA",
    # Random-looking letters.
    3: "E M V C W J F A Z",
    # Long English text (the golden-goose fable opening), 283 characters.
    5: ("ONE DAY A COUNTRYMAN GOING TO THE NEST OF HIS GOOSE FOUND THERE "
        "AN EGG ALL YELLOW AND GLITTERING WHEN HE TOOK IT UP IT WAS AS "
        "HEAVY AS LEAD AND HE WAS GOING TO THROW IT AWAY BECAUSE HE "
        "THOUGHT A TRICK HAD BEEN PLAYED UPON HIM. BUT HE TOOK IT HOME "
        "ON SECOND THOUGHTS AND SOON FOUND TO"),
    # Long constant text: a single letter repeated.
    6: "E" * 300,
}


@dataclass(frozen=True)
class CaseReport:
    case_id: int
    input_text: str
    input_stream: SymbolStream
    output_stream: SymbolStream
    input_autocorrelation: AutocorrelationReport
    output_autocorrelation: AutocorrelationReport
    input_entropy: float
    output_entropy: float
    input_distinct: int
    output_distinct: int

    def to_csv(self) -> str:
        """Plot-ready CSV: one row per lag, raw (input) and enc (output)
        autocorrelation, both unnormalized and normalized."""
        lines = ["lag,raw_R,raw_norm,enc_R,enc_norm"]
        raw, enc = self.input_autocorrelation, self.output_autocorrelation
        for i, lag in enumerate(raw.lags):
            lines.append(f"{lag},{raw.values[i]:.10g},{raw.normalized[i]:.10g},"
                         f"{enc.values[i]:.10g},{enc.normalized[i]:.10g}")
        return "\n".join(lines) + "\n"


def analyze_text(text: str, profile: NetworkProfile, frame: KeyFrame,
                 key: HiddenKey, alphabet=LATIN41,
                 max_lag: int = DEFAULT_MAX_LAG, case_id: int = 0) -> CaseReport:
    """Encrypt a text and measure both sides (case_id 0 for ad-hoc input)."""
    plain = text_to_symbols(text, alphabet)
    cipher = encrypt(profile, frame, key, plain)
    acf_in, entropy_in, distinct_in = _measure(plain, max_lag)
    acf_out, entropy_out, distinct_out = _measure(cipher, max_lag)
    return CaseReport(
        case_id=case_id,
        input_text=text,
        input_stream=plain,
        output_stream=cipher,
        input_autocorrelation=acf_in,
        output_autocorrelation=acf_out,
        input_entropy=entropy_in,
        output_entropy=entropy_out,
        input_distinct=distinct_in,
        output_distinct=distinct_out,
    )


def run_case(case_id: int, profile: NetworkProfile, frame: KeyFrame,
             key: HiddenKey, max_lag: int = DEFAULT_MAX_LAG) -> CaseReport:
    """Encrypt one built-in case and measure both sides.

    Case texts include punctuation, so they are coded with the 41-symbol
    alphabet regardless of the profile's text alphabet.
    """
    text = CASE_INPUTS.get(case_id)
    if text is None:
        raise UnknownCase(f"case {case_id} is not one of {sorted(CASE_INPUTS)}")
    return analyze_text(text, profile, frame, key, alphabet=LATIN41,
                        max_lag=max_lag, case_id=case_id)
