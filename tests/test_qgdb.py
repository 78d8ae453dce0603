import ast
import dataclasses
import hashlib
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher.errors import IndexOutOfRange, InvalidOrder, ProfileInvalid


# --- base square ------------------------------------------------------------------

def test_base_square_order_one():
    assert qg.base_square(1).table.tolist() == [[1]]


def test_base_square_order_three():
    assert qg.base_square(3).table.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]


@pytest.mark.parametrize("n", [2, 5, 17, 64, 256])
def test_base_square_is_latin(n):
    qg.validate_latin_square(qg.base_square(n).table)


def test_base_square_rejects_bad_order():
    with pytest.raises(InvalidOrder):
        qg.base_square(0)


# --- indexed provider ---------------------------------------------------------------

def test_get_quasigroup_is_deterministic(profile):
    a = qg.get_quasigroup(profile, 16, 3, 500)
    b = qg.get_quasigroup(profile, 16, 3, 500)
    assert a == b


@given(order=st.integers(min_value=2, max_value=128),
       index=st.integers(min_value=1, max_value=1000),
       nonce=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_generated_squares_are_latin(order, index, nonce):
    square = qg.get_quasigroup(qg.default_profile(), order, index, nonce)
    qg.validate_latin_square(square.table)
    qg.validate_latin_square(qg.left_inverse(square).table)


def test_distinct_indices_give_distinct_tables(profile):
    # 100 sampled index pairs at order 16; near-collisions are possible
    # but must be rare.
    stream = qg.SplitMix64(314)
    differing = 0
    for _ in range(100):
        i = stream.next_range(1, 1000)
        j = stream.next_range(1, 1000)
        while j == i:
            j = stream.next_range(1, 1000)
        a = qg.get_quasigroup(profile, 16, i, 42)
        b = qg.get_quasigroup(profile, 16, j, 42)
        if a != b:
            differing += 1
    assert differing >= 99


def test_nonce_changes_the_table(profile):
    assert qg.get_quasigroup(profile, 16, 3, 1) != qg.get_quasigroup(profile, 16, 3, 2)


def test_repeated_indices_are_permitted(profile):
    frame = qg.KeyFrame(r=35, s=41, indices=(1, 1, 1, 1, 1, 1), nonce=500)
    key = qg.derive_hidden_key(profile, frame)
    assert len(key.multipliers) == 6


def test_get_quasigroup_rejects_bad_arguments(profile):
    with pytest.raises(InvalidOrder):
        qg.get_quasigroup(profile, 1, 1, 0)
    with pytest.raises(IndexOutOfRange):
        qg.get_quasigroup(profile, 8, 0, 0)
    with pytest.raises(IndexOutOfRange):
        qg.get_quasigroup(profile, 8, profile.index_max + 1, 0)


@given(order=st.sampled_from([2, 3, 51, 255, 256, 257, 1024]),
       index=st.integers(min_value=1, max_value=1000),
       nonce=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_direct_isotope_equals_isotopy_of_the_base_square(order, index, nonce):
    profile = qg.default_profile()
    perms = [qg.permutation_from_seed(
        qg.derive_seed((profile.db_seed, order, index, nonce, tag)), order)
        for tag in (1, 2, 3)]
    square = qg.get_quasigroup(profile, order, index, nonce)
    assert square == qg.apply_isotopy(qg.base_square(order), *perms)
    assert square.table.dtype == (np.uint8 if order < 256 else np.uint16)


# SHA-256 of the table for (order, index 7, nonce 500) under the default
# profile, as little-endian 16-bit entries, whatever the storage type.
TABLE_SHA256 = {
    2: "3eda4a179e8ad0d95667f1fc272c87e7545a1e237113b4e875f36aff17f94c24",
    51: "fc9496c4328d1fe99db7113fdb0bbe1f0f6709a467720890999c961986278597",
    171: "0787457e831a3d08702e5e94946756d46613afbaa17db91ed132e4f960dbd257",
    255: "fd8681f7dc002049117b6496a86413be3a66447db0a03753223df81d1b64dac4",
    256: "d2d9172d2096985c6681ea2ea83f8ced99f16ef57b0c9abe0d03fa0513618756",
    257: "fc44457829499a09372c760c47240c47ddc7a64be3531acee51a8f97de0cc3b0",
    1024: "dd8cc82b4a7572718c353d989c8f351d510a20932a0ee0c82ecc3ebc6f52b4f9",
    4096: "8e24bf422b4dc056605f1c9fe2c1882e04ac5d19a42e6f3d49d1c18e7951b311",
}


@pytest.mark.parametrize("order", sorted(TABLE_SHA256))
def test_table_bytes_are_pinned(order, profile):
    square = qg.get_quasigroup(profile, order, 7, 500)
    digest = hashlib.sha256(square.table.astype("<u2").tobytes()).hexdigest()
    assert digest == TABLE_SHA256[order]


def test_get_quasigroup_keeps_no_table_alive(profile):
    # a caller that drops its table frees it, inverse and all
    square = qg.get_quasigroup(profile, 64, 7, 500)
    qg.left_inverse(square)
    ref = weakref.ref(square)
    del square
    assert ref() is None


def test_get_quasigroup_at_the_order_cap_peaks_under_75_mb(profile):
    # the base square is filled in its storage type, with no wider
    # temporary: the table is 33.6 MB, the isotopy gathers rows and columns
    # once, and gamma is gathered into that copy in place, row by row
    tracemalloc.start()
    try:
        qg.get_quasigroup(profile, qg.MAX_ORDER, 7, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 75e6


@pytest.mark.parametrize("args, error, reason", [
    ((16.0, 1, 0), InvalidOrder, "order 16.0 is not an integer"),
    ((True, 1, 0), InvalidOrder, "order True is not an integer"),
    ((16, 1.5, 0), IndexOutOfRange, "index 1.5 is not an integer"),
    ((16, True, 0), IndexOutOfRange, "index True is not an integer"),
    ((16, 1, 0.5), IndexOutOfRange, "nonce 0.5 is not an integer"),
    ((16, 1, False), IndexOutOfRange, "nonce False is not an integer"),
    ((16, 1, "0"), IndexOutOfRange, "nonce '0' is not an integer"),
], ids=["order-float", "order-bool", "index-float", "index-bool",
        "nonce-float", "nonce-bool", "nonce-str"])
def test_get_quasigroup_refuses_a_field_that_is_not_an_integer(
        profile, args, error, reason):
    # derive_seed would truncate a float to the table of its integer part
    with pytest.raises(error, match=f"^{reason}$"):
        qg.get_quasigroup(profile, *args)


def _named(fn) -> set:
    """Every name and attribute that fn's code reads, and "raise" if it
    raises; its docstring is not code."""
    tree = ast.parse(inspect.getsource(fn))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {"raise" for node in ast.walk(tree) if isinstance(node, ast.Raise)})


def test_frame_rows_check_nothing_and_build_no_tuple(profile, monkeypatch):
    # keying.check_key judges the frame before the cipher asks for its
    # rows, so the rows name no check and raise nothing
    assert not hasattr(qg.qgdb, "_check_table")
    assert not _named(qg.qgdb.frame_rows) & {"check_order", "_conforms",
                                             "index_max", "raise"}
    # a derived key builds its rows once, from the key's orders and
    # multipliers and the frame's indices as they are
    frame = qg.generate_frame(profile, 7)
    key = qg.derive_hidden_key(profile, frame)
    seen, build = [], qg.keying.frame_rows
    monkeypatch.setattr(qg.keying, "frame_rows",
                        lambda *args: seen.append(args) or build(*args))
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    qg.decrypt(profile, frame, key, qg.encrypt(profile, frame, key, plain))
    [(owner, orders, indices, nonce, leaders)] = seen
    assert owner is profile and nonce == frame.nonce
    assert orders is key.level_orders and indices is frame.indices
    assert leaders is key.multipliers
    # a list of indices builds the same rows
    listed = qg.qgdb.frame_rows(profile, key.level_orders, list(frame.indices),
                                frame.nonce, key.multipliers)
    for got, own in zip(listed, key._own_rows):
        assert (got.states, got.windows, got.offsets, got.inverse) == (
            own.states, own.windows, own.offsets, own.inverse)


def test_table_cache_holds_one_frame_at_the_level_cap(monkeypatch):
    # every level a distinct table: the frame's permutations are drawn once,
    # in one batch per order, and both directions' rows are built from that
    # one draw and kept on the key, so decrypting right after encrypting,
    # and a second round trip, find their rows there
    k = qg.qgdb.MAX_LEVELS
    profile = qg.NetworkProfile(level_count=k, split=k // 2)
    frame = qg.KeyFrame(r=40, s=50, indices=tuple(range(1, k + 1)), nonce=500)
    key = qg.derive_hidden_key(profile, frame)
    plain = qg.SymbolStream(40, tuple(range(1, 41)))
    drawn, isotopy = [], qg.qgdb._isotopy
    monkeypatch.setattr(qg.qgdb, "_isotopy",
                        lambda *args: drawn.append(args) or isotopy(*args))
    for _ in range(2):
        cipher = qg.encrypt(profile, frame, key, plain)
        assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    assert [(order, len(indices)) for _, order, indices, _ in drawn] == [
        (40, k // 2), (50, k // 2)]


# --- profile ---------------------------------------------------------------------------

def test_profile_json_round_trip(profile):
    text = qg.profile_to_json(profile)
    assert qg.profile_from_json(text) == profile
    # db_seed travels as a decimal string
    import json
    assert json.loads(text)["db_seed"] == str(profile.db_seed)
    import dataclasses
    for seed in (0, (1 << 64) - 1):  # the ends of the db_seed range
        edge = dataclasses.replace(profile, db_seed=seed)
        assert qg.profile_from_json(qg.profile_to_json(edge)) == edge


def test_profile_file_holds_the_profile_json(profile, tmp_path):
    path = tmp_path / "net.json"
    qg.save_profile(profile, path)
    assert path.read_bytes() == qg.profile_to_json(profile).encode("utf-8")
    assert qg.load_profile(path) == profile


def test_default_profile_bytes_are_pinned():
    # Containers carry a fingerprint of these exact bytes.
    text = qg.profile_to_json(qg.default_profile())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1bfc27d983ac8cc8fdb46ba72e2116ab14006b95689683c8882aa4899e7a02d3")


def test_profile_key_order_is_fixed(profile):
    import json
    keys = list(json.loads(qg.profile_to_json(profile)))
    assert keys == ["profile_id", "db_seed", "r_min", "r_max", "s_max", "k",
                    "m", "index_max", "T", "T1", "alphabet_id", "version"]


def test_profile_rejects_unknown_keys(profile):
    import json
    obj = json.loads(qg.profile_to_json(profile))
    obj["extra"] = 1
    with pytest.raises(ProfileInvalid):
        qg.profile_from_json(json.dumps(obj))


def test_profile_rejects_deeply_nested_json():
    # json.loads raises RecursionError, not JSONDecodeError, on this input
    with pytest.raises(ProfileInvalid, match="not valid JSON"):
        qg.profile_from_json("[" * 100_000)


@pytest.mark.parametrize("key, value", [
    ("k", True), ("T1", 1.5), ("r_min", "32"), ("profile_id", 7),
    ("db_seed", 1), ("db_seed", "0x10"), ("db_seed", " 1_0 "), ("db_seed", "+10"),
    ("db_seed", "\u0661\u0660"), ("db_seed", ""), ("db_seed", "010"),
    pytest.param("db_seed", "1" * 5000, id="db_seed-5000-digits"),
    ("db_seed", str(1 << 64)), ("version", 2),
    ("version", True), ("version", 1.0),
])
def test_profile_rejects_wrong_value_types(profile, key, value):
    import json
    obj = json.loads(qg.profile_to_json(profile))
    obj[key] = value
    with pytest.raises(ProfileInvalid, match=key):
        qg.profile_from_json(json.dumps(obj))


def test_profile_must_be_a_json_object():
    with pytest.raises(ProfileInvalid, match="profile file must hold a JSON object"):
        qg.profile_from_json("[]")


def test_profile_rejects_missing_keys(profile):
    import json
    obj = json.loads(qg.profile_to_json(profile))
    del obj["s_max"]
    with pytest.raises(ProfileInvalid):
        qg.profile_from_json(json.dumps(obj))


@pytest.mark.parametrize("fields", [
    {"r_min": 1},
    {"r_min": 200, "r_max": 100},
    {"r_max": 300, "s_max": 256},
    {"level_count": 1},
    {"split": 0},
    {"split": 6},
    {"index_max": 0},
    {"nonce_lower": 0},
    {"nonce_lower": 999, "nonce_upper": 1000},
    {"db_seed": -1},
    {"alphabet_id": "latin99"},
    {"s_max": qg.MAX_ORDER + 1},
    {"level_count": qg.qgdb.MAX_LEVELS + 1},
    {"level_count": 10 ** 9},
    {"index_max": 2 ** 64},
    {"nonce_upper": 2 ** 64 + 1},
    {"nonce_lower": 10 ** 30, "nonce_upper": 10 ** 31},
])
def test_profile_invariants(fields):
    with pytest.raises(ProfileInvalid):
        dataclasses.replace(qg.default_profile(), **fields)


def test_profile_accepts_exactly_the_defined_alphabets():
    for alphabet_id in qg.ALPHABETS:
        profile = dataclasses.replace(qg.default_profile(), alphabet_id=alphabet_id)
        assert qg.get_alphabet(profile.alphabet_id).id == alphabet_id
    with pytest.raises(ProfileInvalid):
        dataclasses.replace(qg.default_profile(), alphabet_id="latin99")


def test_unknown_alphabet_names_the_known_ones():
    with pytest.raises(KeyError, match="latin27.*latin41"):
        qg.get_alphabet("nope")


def test_fingerprint_is_length_sensitive():
    assert qg.profile_fingerprint(b"x") != qg.profile_fingerprint(b"x\x00")
    assert qg.profile_fingerprint(b"") != qg.profile_fingerprint(b"\x00" * 8)
    text = qg.profile_to_json(qg.default_profile()).encode()
    assert qg.profile_fingerprint(text) == qg.profile_fingerprint(text)
