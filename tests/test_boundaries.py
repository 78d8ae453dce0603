"""Inputs that cross a trust boundary: profile and frame JSON, `.qge`
containers, symbol text and inline keys.  Each parser may accept its input
or raise a QGError subclass, and nothing else.

The fuzz tests start from valid inputs and mutate them; example counts are
bounded so that the suite's run time barely moves.
"""

import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher.cli import main, parse_legacy_key
from qgcipher.errors import FrameInvalid, ProfileInvalid, QGError

PROFILE_TEXT = qg.profile_to_json(qg.default_profile())
FRAME = qg.generate_frame(qg.default_profile(), 7)
FRAME_TEXT = qg.frame_to_json(FRAME, "default")
CONTAINER = qg.pack_container(
    qg.profile_fingerprint(PROFILE_TEXT.encode()), FRAME,
    qg.encrypt(qg.default_profile(), FRAME,
               qg.derive_hidden_key(qg.default_profile(), FRAME),
               qg.text_to_symbols("ATTACK AT DAWN", qg.LATIN27)))

# Longer than CPython's default int-string limit of 4,300 digits.
HUGE = "9" * 5000

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no int-string digit limit")


def _with_raw_value(text: str, key: str, raw: str) -> str:
    """`text` with the value of `key` replaced by the JSON token `raw`."""
    obj = json.loads(text)
    obj[key] = "@"
    return json.dumps(obj).replace('"@"', raw)


def _accepts_or_raises_qgerror(parse, data):
    try:
        parse(data)
    except QGError:
        pass


# --- oversized integers --------------------------------------------------------

@needs_digit_limit
def test_oversized_json_integer_is_an_invalid_profile_or_frame():
    with pytest.raises(ProfileInvalid):
        qg.profile_from_json(_with_raw_value(PROFILE_TEXT, "r_min", HUGE))
    with pytest.raises(FrameInvalid):
        qg.frame_from_json(_with_raw_value(FRAME_TEXT, "nonce", HUGE))


@needs_digit_limit
def test_oversized_json_integer_is_an_error_not_a_traceback(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(_with_raw_value(PROFILE_TEXT, "r_min", HUGE))
    assert main(["keygen", "--profile", str(profile), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    frame = tmp_path / "frame.json"
    frame.write_text(_with_raw_value(FRAME_TEXT, "nonce", HUGE))
    message = tmp_path / "msg.txt"
    message.write_text("HI")
    assert main(["encrypt", "--frame", str(frame), "--in", str(message),
                 "--out", str(tmp_path / "msg.qge")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# --- JSON files ----------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

raw_numbers = st.sampled_from([
    HUGE, "-" + HUGE, "1e5000", "-1e5000", "1" + "0" * 20, "18446744073709551616",
    "-1", "-0", "0.0", "1.5", "1E2", "NaN", "Infinity", "-Infinity",
    "[" * 5000, "{" * 5000, "[" * 50 + "]" * 50,
])


def _mutations(text: str):
    """Structured edits of a valid JSON object, then raw byte-level ones."""
    keys = sorted(json.loads(text))
    structured = st.one_of(
        st.tuples(st.just("value"), st.sampled_from(keys), json_values),
        st.tuples(st.just("raw"), st.sampled_from(keys), raw_numbers),
        st.tuples(st.just("drop"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("add"), st.text(max_size=6), json_values),
    )

    def apply(edit):
        kind, key, value = edit
        if kind == "raw":
            return _with_raw_value(text, key, value)
        obj = json.loads(text)
        if kind == "drop":
            del obj[key]
        else:
            obj[key] = value
        return json.dumps(obj)

    cut = st.integers(0, len(text)).map(lambda k: text[:k])
    flip = st.tuples(st.integers(0, len(text) - 1), st.characters()).map(
        lambda edit: text[:edit[0]] + edit[1] + text[edit[0] + 1:])
    return structured.map(apply) | cut | flip


@given(_mutations(PROFILE_TEXT))
@settings(max_examples=100, deadline=None)
def test_profile_from_json_raises_only_qgerrors(text):
    _accepts_or_raises_qgerror(qg.profile_from_json, text)


@given(_mutations(FRAME_TEXT))
@settings(max_examples=100, deadline=None)
def test_frame_from_json_raises_only_qgerrors(text):
    _accepts_or_raises_qgerror(qg.frame_from_json, text)


# --- binary containers ---------------------------------------------------------

def _blob_mutations(blob: bytes):
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1),
                               st.integers(1, 255)), min_size=1, max_size=4)

    def flip(edits):
        out = bytearray(blob)
        for pos, mask in edits:
            out[pos] ^= mask
        return bytes(out)

    cut = st.integers(0, len(blob)).map(lambda k: blob[:k])
    grow = st.binary(min_size=1, max_size=16).map(lambda extra: blob + extra)
    return flips.map(flip) | cut | grow | st.binary(max_size=64)


@given(_blob_mutations(CONTAINER))
@settings(max_examples=100, deadline=None)
def test_unpack_container_raises_only_qgerrors(blob):
    _accepts_or_raises_qgerror(qg.unpack_container, blob)


# --- text inputs ---------------------------------------------------------------

tokens = st.one_of(
    st.integers(-70000, 70000).map(str), raw_numbers,
    st.text(alphabet="0123456789_+- #\n\t,x", max_size=12),
    st.text(max_size=6))


@given(st.lists(tokens, max_size=12).map(" ".join),
       st.integers(-2, qg.latin.MAX_ORDER + 2))
@settings(max_examples=100, deadline=None)
def test_parse_symbols_raises_only_qgerrors(text, order):
    _accepts_or_raises_qgerror(lambda t: qg.parse_symbols(t, order), text)


@given(st.lists(tokens, max_size=8).map(",".join))
@settings(max_examples=100, deadline=None)
def test_parse_legacy_key_raises_only_qgerrors(text):
    _accepts_or_raises_qgerror(parse_legacy_key, text)


# --- memory --------------------------------------------------------------------

# Each input is about 1 MB.  A parser may take memory in proportion to its
# input, but not more than 32 times it.
HOSTILE = [
    pytest.param(qg.profile_from_json, lambda: _with_raw_value(
        PROFILE_TEXT, "r_min", json.dumps([10] * 350_000)), id="profile-list"),
    pytest.param(qg.frame_from_json, lambda: _with_raw_value(
        FRAME_TEXT, "indices", json.dumps([10] * 350_000)), id="frame-indices"),
    pytest.param(lambda text: qg.parse_symbols(text, 255),
                 lambda: "255 " * 250_000, id="symbols"),
    pytest.param(parse_legacy_key, lambda: "35, 41" + ", 7" * 350_000,
                 id="legacy-key"),
    pytest.param(qg.unpack_container, lambda: qg.pack_container(
        0, FRAME, qg.SymbolStream(FRAME.s, (FRAME.s,) * 500_000)),
        id="container"),
]


@pytest.mark.parametrize("parse, make", HOSTILE)
def test_parsers_take_memory_in_proportion_to_their_input(parse, make):
    data = make()
    tracemalloc.start()
    try:
        _accepts_or_raises_qgerror(parse, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * len(data) + 2 ** 20
