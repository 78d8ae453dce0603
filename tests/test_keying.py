import copy
import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher import keying
from qgcipher.errors import FrameInvalid, QGError
from qgcipher.keying import FrameStatus


def _frame_ok(profile, frame):
    assert 2 <= frame.r < frame.s <= profile.s_max
    assert profile.r_min <= frame.r <= profile.r_max
    assert len(frame.indices) == profile.level_count
    assert all(1 <= i <= profile.index_max for i in frame.indices)
    assert profile.nonce_lower < frame.nonce < profile.nonce_upper


# --- frame generation -----------------------------------------------------------

def test_generated_frames_satisfy_invariants(profile):
    for seed in range(500):
        _frame_ok(profile, qg.generate_frame(profile, seed))


def test_generation_is_deterministic(profile):
    assert qg.generate_frame(profile, 99) == qg.generate_frame(profile, 99)


def test_nonce_respects_open_interval(profile):
    tight = dataclasses.replace(profile, nonce_lower=10, nonce_upper=12)
    for seed in range(50):
        assert qg.generate_frame(tight, seed).nonce == 11


def test_frames_draw_to_the_64_bit_ends_of_a_profile(profile):
    # the widest ranges a profile allows: indices up to 2**64 - 1, nonces
    # up to 2**64 - 1
    wide = dataclasses.replace(profile, index_max=2 ** 64 - 1,
                               nonce_lower=1, nonce_upper=2 ** 64)
    for seed in range(50):
        _frame_ok(wide, qg.generate_frame(wide, seed))


# --- hidden key ------------------------------------------------------------------

def test_multipliers_stay_inside_their_tables(profile):
    for seed in range(200):
        frame = qg.generate_frame(profile, seed)
        key = qg.derive_hidden_key(profile, frame)
        assert key.level_orders == qg.level_orders(profile, frame)
        assert all(1 <= q <= n for q, n in zip(key.multipliers, key.level_orders))


def test_sender_and_receiver_agree(profile):
    frame = qg.generate_frame(profile, 7)
    assert qg.derive_hidden_key(profile, frame) == qg.derive_hidden_key(profile, frame)


def test_nonce_changes_the_key(profile):
    # Frames differing only in nonce should almost always give different
    # multiplier vectors.
    differing = 0
    for seed in range(100):
        frame = qg.generate_frame(profile, seed)
        other = dataclasses.replace(frame, nonce=frame.nonce + 1)
        if (qg.derive_hidden_key(profile, frame).multipliers
                != qg.derive_hidden_key(profile, other).multipliers):
            differing += 1
    assert differing >= 95


def test_derivation_accepts_out_of_band_nonce(profile):
    # Inline-key workflows use nonce 0; key derivation must not enforce the
    # nonce window (that is acceptance-time policy).
    frame = qg.KeyFrame(r=35, s=41, indices=(5, 4, 2, 1, 6, 3), nonce=0)
    key = qg.derive_hidden_key(profile, frame)
    assert all(1 <= q <= n for q, n in zip(key.multipliers, key.level_orders))


def test_derivation_rejects_structural_problems(profile):
    with pytest.raises(FrameInvalid):
        qg.derive_hidden_key(profile, qg.KeyFrame(r=41, s=35,
                                                  indices=(1,) * 6, nonce=500))
    with pytest.raises(FrameInvalid):
        qg.derive_hidden_key(profile, qg.KeyFrame(r=35, s=41,
                                                  indices=(1, 2), nonce=500))
    with pytest.raises(FrameInvalid):
        qg.derive_hidden_key(profile, qg.KeyFrame(r=35, s=41,
                                                  indices=(0,) * 6, nonce=500))


@pytest.mark.parametrize("orders, reason", [
    (dict(s=900), "s 900 above s_max 256"),
    (dict(r=20), "r 20 outside 32..128"),
    (dict(r=129, s=200), "r 129 outside 32..128"),
    (dict(s=5000), "s 5000 above s_max 256"),
])
def test_frame_orders_must_fit_the_profile(profile, orders, reason,
                                           monkeypatch):
    frame = dataclasses.replace(qg.generate_frame(profile, 7), **orders)

    def no_draw(*args):
        raise AssertionError("a permutation was drawn")

    # no permutation drawn and no chain row built: only keying builds rows
    monkeypatch.setattr(qg.qgdb, "_isotopy", no_draw)
    monkeypatch.setattr(keying, "frame_rows", no_draw)
    with pytest.raises(FrameInvalid, match=reason):
        qg.derive_hidden_key(profile, frame)
    assert qg.validate_frame(profile, frame, now=0).reason == reason


@pytest.mark.parametrize("field, reason", [
    (dict(indices=(1, 1.5, 1, 1, 1, 1)), "index 1.5 at level 2 is not an integer"),
    (dict(nonce=500.5), "nonce 500.5 is not an integer"),
    (dict(r=51.5), "r 51.5 is not an integer"),
    (dict(s=171.0), "s 171.0 is not an integer"),
    (dict(r="51"), "r '51' is not an integer"),
    (dict(s=True), "s True is not an integer"),
    (dict(issued_at=0.5), "issued_at 0.5 is not an integer"),
    (dict(issued_at="0"), "issued_at '0' is not an integer"),
], ids=["index", "nonce", "r", "s-float", "r-str", "s-bool", "issued_at",
        "issued_at-str"])
def test_frame_field_that_is_not_an_integer_is_invalid(profile, field, reason):
    # derive_seed would truncate it to an integer and key the frame; a float
    # r or s would key float multipliers, and a string fail in a comparison
    frame = dataclasses.replace(qg.generate_frame(profile, 7), **field)
    with pytest.raises(FrameInvalid, match=f"^{reason}$"):
        qg.derive_hidden_key(profile, frame)
    verdict = qg.validate_frame(profile, frame, now=0)
    assert verdict.status is FrameStatus.INVALID and verdict.reason == reason


# --- a derived key is judged once ---------------------------------------------------

def _count_judgments(monkeypatch):
    """Record every keying._frame_problem call from here on."""
    real = keying._frame_problem
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(keying, "_frame_problem", spy)
    return calls


def _hand_built(key):
    """A key equal to `key` that no derivation built."""
    return qg.HiddenKey(key.multipliers, key.level_orders)


def _outcome(run, *args):
    """run(*args), or the type and message of the QGError it raises."""
    try:
        return run(*args)
    except QGError as exc:
        return type(exc), str(exc)


def test_a_derived_key_is_not_judged_again_with_its_own_frame(profile,
                                                              monkeypatch):
    frame = qg.generate_frame(profile, 7)
    key = qg.derive_hidden_key(profile, frame)
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    judged = _count_judgments(monkeypatch)
    cipher = qg.encrypt(profile, frame, key, plain)
    assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    keying.check_key(profile, frame, key)
    assert judged == []
    assert qg.encrypt(profile, frame, _hand_built(key), plain) == cipher
    assert judged == [(profile, frame)]


def test_a_keys_source_is_no_part_of_its_value(profile):
    frame = qg.generate_frame(profile, 7)
    key = qg.derive_hidden_key(profile, frame)
    hand = _hand_built(key)
    assert key.source[0] is profile and key.source[1] is frame
    assert hand.source is None and dataclasses.replace(key).source is None
    assert key == hand and hash(key) == hash(hand) and repr(key) == repr(hand)
    with pytest.raises(TypeError):
        qg.HiddenKey(key.multipliers, key.level_orders, source=(profile, frame))


# each makes (frame, key) from the default profile and its seed-7 frame, the
# key being no key derive_hidden_key built from these very objects
_OTHER_KEYS = {
    "hand-built": lambda p, f: (f, _hand_built(qg.derive_hidden_key(p, f))),
    "equal-profile": lambda p, f: (
        f, qg.derive_hidden_key(dataclasses.replace(p), f)),
    "wider-profile": lambda p, f: (
        f, qg.derive_hidden_key(dataclasses.replace(p, r_min=8), f)),
    "equal-frame": lambda p, f: (
        f, qg.derive_hidden_key(p, dataclasses.replace(f))),
    "replaced-key": lambda p, f: (
        f, dataclasses.replace(qg.derive_hidden_key(p, f))),
    "list-frame": lambda p, f: (
        (g := dataclasses.replace(f, indices=list(f.indices))),
        qg.derive_hidden_key(p, g)),
}


@pytest.mark.parametrize("case", list(_OTHER_KEYS))
def test_every_other_key_is_judged_in_full(profile, case, monkeypatch):
    seven = qg.generate_frame(profile, 7)
    own = qg.derive_hidden_key(profile, seven)
    frame, key = _OTHER_KEYS[case](profile, seven)
    assert key == own
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    judged = _count_judgments(monkeypatch)
    cipher = qg.encrypt(profile, frame, key, plain)
    assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    assert judged == [(profile, frame)] * 2
    assert cipher == qg.encrypt(profile, seven, own, plain)


@pytest.mark.parametrize("run", [qg.encrypt, qg.decrypt],
                         ids=["encrypt", "decrypt"])
def test_a_list_indexed_frame_changed_after_derivation_is_refused(profile, run):
    frame = qg.generate_frame(profile, 7)
    frame = dataclasses.replace(frame, indices=list(frame.indices))
    key = qg.derive_hidden_key(profile, frame)
    frame.indices[0] = 0
    with pytest.raises(FrameInvalid,
                       match=f"^index 0 at level 1 outside 1..{profile.index_max}$"):
        run(profile, frame, key, qg.SymbolStream(1, (1,)))


def _count_draws(monkeypatch):
    """Record every qgdb._isotopy call from here on."""
    real = qg.qgdb._isotopy
    draws = []
    monkeypatch.setattr(qg.qgdb, "_isotopy",
                        lambda *args: draws.append(args) or real(*args))
    return draws


def test_alternating_frames_draw_each_frames_permutations_once(profile,
                                                               monkeypatch):
    # a receiver holding an old and a new frame: each derived key keeps its
    # own frame's rows, so switching between them draws nothing
    keyed = [(frame, qg.derive_hidden_key(profile, frame))
             for frame in (qg.generate_frame(profile, 7),
                           qg.generate_frame(profile, 8))]
    plain = qg.text_to_symbols("STATUS OK")
    draws = _count_draws(monkeypatch)
    for _ in range(100):
        for frame, key in keyed:
            cipher = qg.encrypt(profile, frame, key, plain)
            assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    # two orders a frame, one batch each
    assert len(draws) == 4


def test_a_hand_built_key_draws_on_every_call_and_keeps_no_rows(profile,
                                                                monkeypatch):
    frame = qg.generate_frame(profile, 7)
    key = _hand_built(qg.derive_hidden_key(profile, frame))
    plain = qg.text_to_symbols("STATUS OK")
    draws = _count_draws(monkeypatch)
    for _ in range(3):
        cipher = qg.encrypt(profile, frame, key, plain)
        assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    assert len(draws) == 3 * 2 * 2
    assert "_own_rows" not in vars(key)


@pytest.mark.parametrize("duplicate", [
    lambda key: pickle.loads(pickle.dumps(key)), copy.deepcopy],
    ids=["pickle", "deepcopy"])
def test_a_used_derived_key_pickles_and_deep_copies(profile, duplicate,
                                                    monkeypatch):
    frame = qg.generate_frame(profile, 7)
    key = qg.derive_hidden_key(profile, frame)
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    cipher = qg.encrypt(profile, frame, key, plain)
    assert "_own_rows" in vars(key)
    twin = duplicate(key)
    assert twin == key and "_own_rows" not in vars(twin)
    # its source holds copies of the profile and frame, so it is judged in
    # full against the originals
    judged = _count_judgments(monkeypatch)
    assert qg.encrypt(profile, frame, twin, plain) == cipher
    assert qg.decrypt(profile, frame, twin, cipher).symbols == plain.symbols
    assert judged == [(profile, frame)] * 2


# values a frame's field may be changed to: valid or not for the default
# profile (r 32..128, s up to 256, indices 1..1000), and not integers
_FIELD_VALUES = st.one_of(st.integers(0, 300),
                          st.sampled_from([-1, 1001, 1.5, "7", True]))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_derived_key_gives_what_a_judged_key_gives(data):
    # the frame is keyed, then maybe replaced or changed in place; a key
    # derived from it must give the cipher's result or error that the same
    # multipliers give when judged in full
    profile = qg.default_profile()
    frame = qg.generate_frame(profile, data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        frame = dataclasses.replace(frame, indices=list(frame.indices))
    key = qg.derive_hidden_key(profile, frame)
    judged = _hand_built(key)
    plain = qg.SymbolStream(frame.r, data.draw(
        st.lists(st.integers(1, frame.r), max_size=20)))
    cipher = qg.SymbolStream(frame.s, data.draw(
        st.lists(st.integers(1, frame.s), max_size=20)))
    change = data.draw(st.sampled_from(["none", "r", "s", "nonce", "index"]))
    if change == "index":
        level = data.draw(st.integers(0, profile.level_count - 1))
        value = data.draw(_FIELD_VALUES)
        if isinstance(frame.indices, list):
            frame.indices[level] = value
        else:
            indices = list(frame.indices)
            indices[level] = value
            frame = dataclasses.replace(frame, indices=tuple(indices))
    elif change != "none":
        frame = dataclasses.replace(frame, **{change: data.draw(_FIELD_VALUES)})
    for run, stream in ((qg.encrypt, plain), (qg.decrypt, cipher)):
        assert (_outcome(run, profile, frame, key, stream)
                == _outcome(run, profile, frame, judged, stream))


# --- level orders -------------------------------------------------------------------

def test_level_orders_default_split(profile):
    frame = qg.KeyFrame(r=150, s=270, indices=(1, 2, 3, 5, 4, 6), nonce=500)
    wide = dataclasses.replace(profile, r_max=200, s_max=300)
    assert qg.level_orders(wide, frame) == (150, 150, 150, 270, 270, 270)


def test_level_orders_two_levels():
    profile = qg.NetworkProfile(level_count=2, split=1)
    frame = qg.KeyFrame(r=40, s=50, indices=(1, 2), nonce=500)
    assert qg.level_orders(profile, frame) == (40, 50)


def test_level_orders_split_before_last():
    profile = qg.NetworkProfile(level_count=6, split=5)
    frame = qg.KeyFrame(r=40, s=50, indices=(1,) * 6, nonce=500)
    assert qg.level_orders(profile, frame) == (40, 40, 40, 40, 40, 50)


# --- validation ------------------------------------------------------------------------

def test_fresh_frame_is_valid(profile):
    frame = qg.generate_frame(profile, 3, issued_at=100)
    assert qg.validate_frame(profile, frame, now=100).is_valid


def test_expiry_boundary_is_exclusive(profile):
    frame = qg.generate_frame(profile, 3, issued_at=100)
    end = frame.issued_at + frame.nonce
    assert qg.validate_frame(profile, frame, now=end - 1).is_valid
    verdict = qg.validate_frame(profile, frame, now=end)
    assert verdict.status is FrameStatus.EXPIRED


def test_equal_orders_are_invalid(profile):
    frame = qg.KeyFrame(r=41, s=41, indices=(1,) * 6, nonce=500)
    verdict = qg.validate_frame(profile, frame, now=0)
    assert verdict.status is FrameStatus.INVALID
    assert verdict.reason == "r must be < s"


def test_nonce_outside_the_profile_window_is_invalid(profile):
    frame = dataclasses.replace(qg.generate_frame(profile, 7), nonce=5)
    verdict = qg.validate_frame(profile, frame, now=0)
    assert verdict.status is FrameStatus.INVALID
    assert verdict.reason == "nonce 5 outside (100, 1000)"


def test_validation_is_monotone_in_now(profile):
    frame = qg.generate_frame(profile, 5, issued_at=0)
    expired_seen = False
    for now in range(0, frame.nonce + 50, 7):
        verdict = qg.validate_frame(profile, frame, now)
        if expired_seen:
            assert verdict.status is FrameStatus.EXPIRED
        expired_seen = verdict.status is FrameStatus.EXPIRED


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_generated_key_always_satisfies_membership(seed):
    profile = qg.default_profile()
    frame = qg.generate_frame(profile, seed)
    key = qg.derive_hidden_key(profile, frame)
    assert all(1 <= q <= n for q, n in zip(key.multipliers, key.level_orders))


# --- frame files -------------------------------------------------------------------------

def test_frame_json_round_trip(profile, tmp_path):
    frame = qg.generate_frame(profile, 17, issued_at=12)
    path = tmp_path / "frame.json"
    qg.save_frame(frame, profile.profile_id, path)
    loaded, profile_id = qg.load_frame(path)
    assert loaded == frame
    assert profile_id == profile.profile_id


def test_frame_bytes_are_pinned(profile):
    text = qg.frame_to_json(qg.generate_frame(profile, 7, issued_at=3), "default")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "623d880840d9610fa7e793c570071a4eace28cf485bf3591a698442a0aafa34a")


def test_frame_json_rejects_deeply_nested_json():
    # json.loads raises RecursionError, not JSONDecodeError, on this input
    with pytest.raises(FrameInvalid, match="not valid JSON"):
        qg.frame_from_json("[" * 100_000)


@pytest.mark.parametrize("key, value", [
    ("r", False), ("nonce", 201.0), ("indices", [1, True]), ("indices", 5),
    ("profile_id", None), ("version", "1"), ("version", True),
])
def test_frame_json_rejects_wrong_value_types(profile, key, value):
    import json
    obj = json.loads(qg.frame_to_json(qg.generate_frame(profile, 1), "default"))
    obj[key] = value
    with pytest.raises(FrameInvalid, match=key):
        qg.frame_from_json(json.dumps(obj))


def test_frame_json_must_be_a_json_object():
    with pytest.raises(FrameInvalid, match="frame file must hold a JSON object"):
        qg.frame_from_json("[]")


def test_frame_json_rejects_unknown_keys(profile):
    import json
    obj = json.loads(qg.frame_to_json(qg.generate_frame(profile, 1), "default"))
    obj["surprise"] = True
    with pytest.raises(FrameInvalid):
        qg.frame_from_json(json.dumps(obj))
