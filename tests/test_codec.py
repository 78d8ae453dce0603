import dataclasses
import itertools
import random
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher.errors import (
    CiphertextSymbolTooLarge,
    ContainerError,
    ForgedCiphertext,
    FrameInvalid,
    InvalidOrder,
    KeyMismatch,
    LeaderOutOfRange,
    PlaintextSymbolTooLarge,
    SymbolOutOfRange,
    UnmappableCharacter,
)

# Pinned fixture for the constant-input scrambling regression: frame seed 7
# under the default profile, 500 copies of symbol 5.
SCRAMBLE_SEED = 7
SCRAMBLE_SYMBOL = 5
SCRAMBLE_LENGTH = 500
SCRAMBLE_DISTINCT = 164   # frozen from the first run of this fixture


def _material(profile, seed=SCRAMBLE_SEED):
    frame = qg.generate_frame(profile, seed)
    return frame, qg.derive_hidden_key(profile, frame)


# --- single level ------------------------------------------------------------------

def test_encrypt_level_example(g4):
    out = qg.encrypt_level(g4, 1, qg.SymbolStream(4, (1, 2, 3)))
    assert out.symbols == (2, 1, 1)
    assert out.order == 4


def test_encrypt_level_single_symbol(g4):
    assert qg.encrypt_level(g4, 2, qg.SymbolStream(4, (2,))).symbols == (1,)


def test_encrypt_level_empty(g4):
    assert qg.encrypt_level(g4, 3, qg.SymbolStream(4, ())).symbols == ()


def test_decrypt_level_example(g4):
    out = qg.decrypt_level(g4, 1, qg.SymbolStream(4, (2, 1, 1)))
    assert out.symbols == (1, 2, 3)


def test_decrypt_level_empty(g4):
    assert qg.decrypt_level(g4, 1, qg.SymbolStream(4, ())).symbols == ()


def test_level_round_trip(g4):
    for leader in range(1, 5):
        stream = qg.SymbolStream(4, (1, 3, 2, 4, 4, 1))
        assert qg.decrypt_level(g4, leader,
                                qg.encrypt_level(g4, leader, stream)) == stream


def test_level_leader_out_of_range(g4):
    with pytest.raises(LeaderOutOfRange):
        qg.encrypt_level(g4, 5, qg.SymbolStream(4, (1,)))
    with pytest.raises(LeaderOutOfRange):
        qg.decrypt_level(g4, 0, qg.SymbolStream(4, (1,)))


def test_level_symbol_out_of_range(g4):
    with pytest.raises(SymbolOutOfRange) as err:
        qg.encrypt_level(g4, 1, qg.SymbolStream(9, (1, 7)))
    assert err.value.position == 2


def _oracle_chain(table, leader, symbols):
    # independent recursive form of the chained transformation
    if not symbols:
        return []
    first = table[leader - 1][symbols[0] - 1]
    return [first] + _oracle_chain(table, first, symbols[1:])


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_single_level_matches_oracle_exhaustively(order, profile):
    square = qg.get_quasigroup(profile, order, 1, 99)
    table = square.table.tolist()
    for leader in range(1, order + 1):
        for length in range(5):
            for symbols in itertools.product(range(1, order + 1), repeat=length):
                stream = qg.SymbolStream(order, symbols)
                out = qg.encrypt_level(square, leader, stream)
                assert list(out.symbols) == _oracle_chain(table, leader, list(symbols))
                assert qg.decrypt_level(square, leader, out) == stream


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_levels_match_multiply_and_left_divide(data):
    # Orders on both sides of 256, where the storage, and so the rows the
    # one-level loops read, switches from uint8 to uint16.
    order = data.draw(st.sampled_from([2, 3, 254, 255, 256, 257]))
    square = qg.get_quasigroup(qg.default_profile(), order,
                               data.draw(st.integers(1, 3)), 11)
    leader = data.draw(st.integers(1, order))
    symbols = data.draw(st.lists(st.integers(1, order), max_size=40))
    want, prev = [], leader
    for sym in symbols:
        prev = qg.multiply(square, prev, sym)
        want.append(prev)
    cipher = qg.encrypt_level(square, leader, qg.SymbolStream(order, symbols))
    assert list(cipher.symbols) == want
    plain, prev = [], leader
    for sym in cipher.symbols:
        plain.append(qg.left_divide(square, prev, sym))
        prev = sym
    assert plain == symbols
    assert list(qg.decrypt_level(square, leader, cipher).symbols) == symbols


# --- multi-level encryptor ------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(data):
    profile = qg.default_profile()
    frame = qg.generate_frame(profile, data.draw(st.integers(0, 2**32)))
    key = qg.derive_hidden_key(profile, frame)
    symbols = tuple(data.draw(
        st.lists(st.integers(1, frame.r), max_size=120)))
    plain = qg.SymbolStream(frame.r, symbols)
    cipher = qg.encrypt(profile, frame, key, plain)
    assert cipher.order == frame.s
    assert all(1 <= sym <= frame.s for sym in cipher.symbols)
    assert qg.decrypt(profile, frame, key, cipher) == plain


def test_output_widens_to_second_order(profile):
    frame, key = _material(profile)
    out = qg.encrypt(profile, frame, key, qg.SymbolStream(frame.r, (1,) * 10))
    assert out.order == frame.s
    assert len(out) == 10


def test_empty_round_trip(profile):
    frame, key = _material(profile)
    empty = qg.SymbolStream(frame.r, ())
    assert qg.decrypt(profile, frame, key, qg.encrypt(profile, frame, key, empty)) == empty


def test_encrypt_is_deterministic(profile):
    frame, key = _material(profile)
    plain = qg.SymbolStream(frame.r, tuple((i % frame.r) + 1 for i in range(64)))
    a = qg.encrypt(profile, frame, key, plain)
    b = qg.encrypt(profile, frame, key, plain)
    assert a == b
    fp = qg.profile_fingerprint(qg.profile_to_json(profile).encode())
    assert qg.pack_container(fp, frame, a) == qg.pack_container(fp, frame, b)


def test_constant_input_scrambles(profile):
    frame, key = _material(profile)
    plain = qg.SymbolStream(frame.r, (SCRAMBLE_SYMBOL,) * SCRAMBLE_LENGTH)
    out = qg.encrypt(profile, frame, key, plain)
    distinct = len(set(out.symbols))
    assert distinct == SCRAMBLE_DISTINCT
    assert distinct * 2 >= frame.s


@st.composite
def _keyed_frames(draw, spread=40):
    """A profile with 2..16 levels, a frame of it and the frame's key; the
    frame's orders lie below, at or above 256, and r < 256 < s happens.
    s exceeds r by at most `spread`."""
    levels = draw(st.integers(2, qg.qgdb.MAX_LEVELS))
    r = draw(st.sampled_from([2, 3, 51, 255, 256, 257]))
    profile = dataclasses.replace(
        qg.default_profile(), r_min=r, r_max=r,
        s_max=draw(st.integers(r + 1, r + spread)), level_count=levels,
        split=draw(st.integers(1, levels - 1)))
    frame = qg.generate_frame(profile, draw(st.integers(0, 2 ** 32)))
    return profile, frame, qg.derive_hidden_key(profile, frame)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_prefix_causality(data):
    # Ciphertext position i depends only on plaintext positions 1..i.
    profile, frame, key = data.draw(_keyed_frames())
    base = data.draw(st.lists(st.integers(1, frame.r), min_size=1, max_size=40))
    reference = qg.encrypt(profile, frame, key,
                           qg.SymbolStream(frame.r, tuple(base))).symbols
    for i in range(len(base)):
        changed = list(base)
        changed[i] = base[i] % frame.r + 1
        out = qg.encrypt(profile, frame, key,
                         qg.SymbolStream(frame.r, tuple(changed))).symbols
        assert out[:i] == reference[:i]
        # rows are permutations, so a changed input symbol always moves
        # the output at the same position
        assert out[i] != reference[i]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_changed_ciphertext_symbol_garbles_at_most_k_plus_one(data):
    # Decryption level j reads only symbols i - 1 and i of its input, so a
    # change at position j reaches plaintext positions j..j+k, or makes the
    # ciphertext one that no plaintext encrypts to.
    profile, frame, key = data.draw(_keyed_frames())
    plain = data.draw(st.lists(st.integers(1, frame.r), min_size=1, max_size=40))
    cipher = list(qg.encrypt(profile, frame, key,
                             qg.SymbolStream(frame.r, tuple(plain))).symbols)
    j = data.draw(st.integers(0, len(cipher) - 1))
    cipher[j] = data.draw(st.integers(1, frame.s).filter(
        lambda sym: sym != cipher[j]))
    try:
        out = qg.decrypt(profile, frame, key,
                         qg.SymbolStream(frame.s, tuple(cipher))).symbols
    except ForgedCiphertext:
        return
    garbled = [i for i, (a, b) in enumerate(zip(out, plain)) if a != b]
    assert garbled[0] == j
    assert garbled[-1] <= j + profile.level_count


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_encrypt_and_decrypt_match_the_level_by_level_walk(data):
    # The frame's chain rows, every level in one pass, against one level at a
    # time over get_quasigroup's tables; forged ciphertexts name the same
    # position, symbol, level and order.
    profile, frame, key = data.draw(_keyed_frames())
    levels = [(qg.get_quasigroup(profile, order, index, frame.nonce), q)
              for order, index, q in zip(key.level_orders, frame.indices,
                                          key.multipliers)]
    plain = qg.SymbolStream(frame.r, data.draw(
        st.lists(st.integers(1, frame.r), max_size=40)))
    want = plain
    for square, q in levels:
        want = qg.encrypt_level(square, q, want)
    assert qg.encrypt(profile, frame, key, plain).symbols == want.symbols
    assert qg.decrypt(profile, frame, key, want).symbols == plain.symbols

    cipher = qg.SymbolStream(frame.s, data.draw(
        st.lists(st.integers(1, frame.s), max_size=40)))
    want, forged = cipher, None
    for level, (square, q) in reversed(list(enumerate(levels, 1))):
        outside = [(pos, sym) for pos, sym in enumerate(want.symbols, 1)
                   if sym > square.order]
        if outside:
            forged = (*outside[0], level, f"exceeds its order {square.order}")
            break
        want = qg.decrypt_level(square, q, want)
    try:
        got = qg.decrypt(profile, frame, key, cipher)
    except ForgedCiphertext as exc:
        assert (exc.position, exc.symbol, exc.level) == forged[:3]
        assert str(exc).endswith(forged[3])
    else:
        assert forged is None and got.symbols == want.symbols


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_valid_encrypt_and_decrypt_build_no_table(data):
    # The frame's rows come from its permutations alone: no LatinSquare, so
    # no table, inverse or tolist() rows.  A mis-coded row would send a
    # valid ciphertext down the forged-ciphertext path, so this also checks
    # that decrypt gives back the plaintext.
    profile, frame, key = data.draw(_keyed_frames())
    plain = qg.SymbolStream(frame.r, data.draw(
        st.lists(st.integers(1, frame.r), max_size=40)))

    def no_table(*args):
        raise AssertionError("a table was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qg.LatinSquare, "__init__", no_table)
        cipher = qg.encrypt(profile, frame, key, plain)
        assert qg.decrypt(profile, frame, key, cipher) == plain


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_forged_ciphertext_builds_no_table(data):
    # A ciphertext whose order-s levels undo to a symbol above r is named
    # from the frame's rows alone, with the fields of the level-by-level
    # walk over get_quasigroup's tables.
    profile, frame, key = data.draw(_keyed_frames())
    levels = [(qg.get_quasigroup(profile, order, index, frame.nonce), q)
              for order, index, q in zip(key.level_orders, frame.indices,
                                          key.multipliers)]
    middle = data.draw(st.lists(st.integers(1, frame.s), min_size=1,
                                max_size=40))
    middle[data.draw(st.integers(0, len(middle) - 1))] = data.draw(
        st.integers(frame.r + 1, frame.s))
    cipher = qg.SymbolStream(frame.s, middle)
    for square, q in levels[profile.split:]:
        cipher = qg.encrypt_level(square, q, cipher)
    want = cipher
    for level, (square, q) in reversed(list(enumerate(levels, 1))):
        outside = [(pos, sym) for pos, sym in enumerate(want.symbols, 1)
                   if sym > square.order]
        if outside:
            forged = (*outside[0], level, f"exceeds its order {square.order}")
            break
        want = qg.decrypt_level(square, q, want)

    def no_table(*args):
        raise AssertionError("a table was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qg.LatinSquare, "__init__", no_table)
        with pytest.raises(ForgedCiphertext) as err:
            qg.decrypt(profile, frame, key, cipher)
    assert (err.value.position, err.value.symbol, err.value.level) == forged[:3]
    assert str(err.value).endswith(forged[3])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_decrypt_is_local(data):
    # Plaintext position p depends only on ciphertext positions p-k..p: two
    # ciphertexts that both decrypt and agree on i-k..j decrypt to
    # plaintexts that agree on i..j.  Both are prefixes of encryptions; the
    # second takes its first i-k symbols from another plaintext's, so its
    # symbols i-k..i-1 may not decrypt, which s close to r makes rare.
    profile, frame, key = data.draw(_keyed_frames(spread=2))
    k = profile.level_count
    plains = [data.draw(st.lists(st.integers(1, frame.r), min_size=k + 1,
                                 max_size=k + 40)) for _ in range(2)]
    ciphers = [qg.encrypt(profile, frame, key,
                          qg.SymbolStream(frame.r, plain)).symbols
               for plain in plains]
    j = data.draw(st.integers(k, min(map(len, ciphers)) - 1))
    i = data.draw(st.integers(0, j))
    mixed = ciphers[1][:max(0, i - k)] + ciphers[0][max(0, i - k):j + 1]
    try:
        out = qg.decrypt(profile, frame, key, qg.SymbolStream(frame.s, mixed))
    except ForgedCiphertext:
        return
    assert out.symbols[i:] == tuple(plains[0][i:j + 1])


# --- rows sliced on first use --------------------------------------------------------

def _sliced(key, inverse):
    """How many rows of each level of the derived key's own rows are
    sliced."""
    return [sum(row != () for row in level)
            for level in key._own_rows[inverse].rows]


def _levels_undone(levels, cipher):
    """decrypt_level over each table, last level first: (plaintext, None),
    or (None, the forged symbol's (position, symbol, level, order))."""
    for level, (square, q) in reversed(list(enumerate(levels, 1))):
        outside = [(pos, sym) for pos, sym in enumerate(cipher.symbols, 1)
                   if sym > square.order]
        if outside:
            return None, (*outside[0], level, square.order)
        cipher = qg.decrypt_level(square, q, cipher)
    return cipher, None


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rows_sliced_on_first_use_match_the_level_by_level_walk(data):
    # One frame's messages in turn, each meeting the rows that the ones
    # before it left unsliced, with lengths on both sides of the row counts.
    # A message shorter than s, below each direction's largest row count
    # (s + 1 in both directions), slices at most one row per symbol
    # in each level, a forged one included, and a plaintext only the rows
    # of the states its levels pass through.
    profile, frame, key = data.draw(_keyed_frames())   # a fresh key: cold rows
    levels = [(qg.get_quasigroup(profile, order, index, frame.nonce), q)
              for order, index, q in zip(key.level_orders, frame.indices,
                                          key.multipliers)]
    near = sorted({max(1, n + d) for n in (frame.r, frame.s) for d in (-1, 0, 1, 2)})
    lengths = st.one_of(st.integers(1, 12), st.sampled_from(near))
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["plain", "cipher", "forged"]))
        length = data.draw(lengths)
        before = [_sliced(key, inverse) for inverse in (False, True)]
        reached = [length] * len(levels)
        if kind == "plain":
            plain = qg.SymbolStream(frame.r, data.draw(
                st.lists(st.integers(1, frame.r), min_size=length, max_size=length)))
            want = plain
            for j, (square, q) in enumerate(levels):
                want = qg.encrypt_level(square, q, want)
                reached[j] = len({q, *want.symbols[:-1]})
            cipher = qg.encrypt(profile, frame, key, plain)
            assert cipher.symbols == want.symbols
            assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
        else:
            middle = data.draw(st.lists(st.integers(1, frame.s), min_size=length,
                                        max_size=length))
            if kind == "forged":
                middle[data.draw(st.integers(0, length - 1))] = data.draw(
                    st.integers(frame.r + 1, frame.s))
            cipher = qg.SymbolStream(frame.s, middle)
            if kind == "forged":
                for square, q in levels[profile.split:]:
                    cipher = qg.encrypt_level(square, q, cipher)
            want, forged = _levels_undone(levels, cipher)
            assert forged is not None or kind != "forged"
            try:
                got = qg.decrypt(profile, frame, key, cipher)
            except ForgedCiphertext as exc:
                assert (exc.position, exc.symbol, exc.level) == forged[:3]
                assert str(exc).endswith(f"exceeds its order {forged[3]}")
                assert exc.order == forged[3]
            else:
                assert forged is None and got.symbols == want.symbols
        if length < frame.s:
            after = [_sliced(key, inverse) for inverse in (False, True)]
            # decrypt walks the levels last first
            for old, new, most in zip(sum(before, []), sum(after, []),
                                      reached + reached[::-1]):
                assert new - old <= most


def test_a_cold_short_message_slices_few_rows(profile):
    # The seed-7 frame (r = 51, s = 171) has 52 to 172 rows a level; a
    # round trip of 9 symbols reaches at most 9 of them in each.
    frame, key = _material(profile)      # a fresh key: cold rows
    plain = qg.text_to_symbols("STATUS OK")
    cipher = qg.encrypt(profile, frame, key, plain)
    assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
    for inverse in (False, True):
        assert max(_sliced(key, inverse)) <= 10


def test_a_cold_frame_at_the_order_cap_holds_only_the_rows_it_reaches():
    # Every row of a two-level frame at orders 4095/4096, in both
    # directions, takes about 515 MB; a 9-symbol round trip slices 9 rows
    # a level.
    profile = dataclasses.replace(qg.default_profile(), r_min=4095, r_max=4095,
                                  s_max=4096, level_count=2, split=1)
    frame, key = _material(profile)      # a fresh key: cold rows
    plain = qg.text_to_symbols("STATUS OK")
    tracemalloc.start()
    try:
        cipher = qg.encrypt(profile, frame, key, plain)
        back = qg.decrypt(profile, frame, key, cipher)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.symbols == plain.symbols
    assert peak < 8 * 2**20


def test_threads_slicing_one_cold_frame_agree(profile):
    # Every thread reads and slices one key's rows in place; a row sliced
    # by two threads at once is sliced the same, so each round trip still
    # matches the level-by-level walk.  Each round derives a fresh key, so
    # it starts cold.  functools.cached_property takes no lock from Python
    # 3.12 on, so there two threads may each build the key's rows once,
    # and each walks the pair it built.  Lengths lie below, between and
    # above the seed-7 frame's row counts (51 to 172).
    frame, key = _material(profile)
    levels = [(qg.get_quasigroup(profile, order, index, frame.nonce), q)
              for order, index, q in zip(key.level_orders, frame.indices,
                                          key.multipliers)]
    rng = random.Random(5)
    messages = [qg.SymbolStream(frame.r, [rng.randint(1, frame.r) for _ in range(n)])
                for n in (9, 9, 30, 60, 100, 200)]
    wants = []
    for plain in messages:
        want = plain
        for square, q in levels:
            want = qg.encrypt_level(square, q, want)
        wants.append(want.symbols)

    def round_trip(key, i):
        cipher = qg.encrypt(profile, frame, key, messages[i])
        return cipher.symbols, qg.decrypt(profile, frame, key, cipher).symbols

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            for _ in range(10):
                key = qg.derive_hidden_key(profile, frame)
                futures = [pool.submit(round_trip, key, i)
                           for i in range(len(messages))]
                for plain, want, future in zip(messages, wants, futures):
                    assert future.result(timeout=60) == (want, plain.symbols)
    finally:
        sys.setswitchinterval(interval)


def test_plaintext_symbol_too_large(profile):
    frame, key = _material(profile)
    plain = qg.SymbolStream(frame.r + 10, (1, frame.r + 1))
    with pytest.raises(PlaintextSymbolTooLarge) as err:
        qg.encrypt(profile, frame, key, plain)
    assert err.value.position == 2
    assert err.value.limit == frame.r


def test_ciphertext_symbol_too_large(profile):
    frame, key = _material(profile)
    cipher = qg.SymbolStream(frame.s + 1, (frame.s + 1,))
    with pytest.raises(CiphertextSymbolTooLarge):
        qg.decrypt(profile, frame, key, cipher)
    cipher = qg.SymbolStream(frame.s + 9, (1, frame.s, frame.s + 4, frame.s + 9))
    with pytest.raises(CiphertextSymbolTooLarge) as err:
        qg.decrypt(profile, frame, key, cipher)
    assert (err.value.position, err.value.symbol) == (3, frame.s + 4)
    assert err.value.limit == frame.s


def test_forged_ciphertext_is_a_qgerror(profile):
    # Symbols in 1..s, but after the order-s levels are undone the first
    # one lies above r, so the first order-r level (level `split`) fails.
    frame, key = _material(profile)
    assert (frame.r, frame.s, profile.split) == (51, 171, 3)
    forged = qg.SymbolStream(frame.s, (170, 3, 150, 12, 99, 171, 1, 160))
    with pytest.raises(ForgedCiphertext) as err:
        qg.decrypt(profile, frame, key, forged)
    assert (err.value.position, err.value.level) == (1, profile.split)
    assert err.value.symbol > frame.r
    assert "position 1" in str(err.value) and "level 3" in str(err.value)
    assert err.value.order == frame.r


def _spy_walks(key, monkeypatch) -> list:
    """Count the runs of the derived key's compiled loops, both directions,
    and of latin.walk_levels, as [loop runs, level walks]: the key's rows
    go back on the key with each loop wrapped."""
    runs = [0, 0]

    def counted(run, i):
        def spy(*args):
            runs[i] += 1
            return run(*args)
        return spy
    vars(key)["_own_rows"] = tuple(rows._replace(loop=counted(rows.loop, 0))
                                   for rows in key._own_rows)
    monkeypatch.setattr(qg.latin, "walk_levels", counted(qg.latin.walk_levels, 1))
    return runs


def test_a_round_trip_runs_one_pass_a_direction(profile, monkeypatch):
    # A cold 9-symbol message under the seed-7 frame (52 to 172 rows a
    # level) meets an unsliced row in the compiled pass, and the level walk
    # that slices the rows it meets yields the output: one pass and one
    # level walk a direction.  Warm, the pass alone.
    frame, key = _material(profile)      # a fresh key: cold rows
    runs = _spy_walks(key, monkeypatch)
    plain = qg.text_to_symbols("STATUS OK")
    for cold in (True, False):
        cipher = qg.encrypt(profile, frame, key, plain)
        assert runs == ([1, 1] if cold else [3, 2])
        assert qg.decrypt(profile, frame, key, cipher).symbols == plain.symbols
        assert runs == ([2, 2] if cold else [4, 2])


def test_rows_belong_to_the_key_whose_leaders_built_them(profile):
    # Rows are started from the leaders of the key that built them: a key
    # with other multipliers, replaced from a derived key (which resets its
    # source) or built by hand, walks from its own leaders, as k single
    # level steps do.
    frame, key = _material(profile)
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    cipher = qg.encrypt(profile, frame, key, plain)   # the derived key's rows
    other = tuple(q % n + 1 for q, n in zip(key.multipliers, key.level_orders))
    levels = [(qg.get_quasigroup(profile, order, index, frame.nonce), q)
              for order, index, q in zip(key.level_orders, frame.indices, other)]
    want = plain
    for square, q in levels:
        want = qg.encrypt_level(square, q, want)
    assert want.symbols != cipher.symbols
    undone, forged = _levels_undone(levels, cipher)
    for swapped in (dataclasses.replace(key, multipliers=other),
                    qg.HiddenKey(other, key.level_orders)):
        assert swapped.source is None
        assert qg.encrypt(profile, frame, swapped, plain).symbols == want.symbols
        assert qg.decrypt(profile, frame, swapped, want).symbols == plain.symbols
        try:
            got = qg.decrypt(profile, frame, swapped, cipher)
        except ForgedCiphertext as exc:
            assert (exc.position, exc.symbol, exc.level, exc.order) == forged
        else:
            assert forged is None and got.symbols == undone.symbols


@pytest.mark.parametrize("length", [8, 400], ids=["short", "long"])
def test_a_forged_ciphertext_on_sliced_rows_runs_the_passes_once(
        profile, monkeypatch, length):
    # Once the rows it reaches are sliced, a forged ciphertext costs one
    # pass and the walk that names it, on either side of the row counts.
    frame, key = _material(profile)      # a fresh key: cold rows
    forged = qg.SymbolStream(frame.s, ((170, 3, 150, 12, 99, 171, 1, 160)
                                       * 50)[:length])
    with pytest.raises(ForgedCiphertext):
        qg.decrypt(profile, frame, key, forged)
    runs = _spy_walks(key, monkeypatch)
    with pytest.raises(ForgedCiphertext) as err:
        qg.decrypt(profile, frame, key, forged)
    assert runs == [1, 1]
    assert (err.value.position, err.value.level) == (1, profile.split)
    assert err.value.order == frame.r


def test_random_streams_decrypt_or_raise_forged_ciphertext(profile):
    frame, key = _material(profile)
    stream = qg.SplitMix64(2024)
    forged = 0
    for _ in range(200):
        cipher = qg.SymbolStream(frame.s, tuple(
            stream.next_range(1, frame.s) for _ in range(20)))
        try:
            plain = qg.decrypt(profile, frame, key, cipher)
        except ForgedCiphertext as exc:
            forged += 1
            assert 1 <= exc.position <= 20 and exc.symbol > frame.r
            assert exc.level == profile.split
            assert exc.order == frame.r
        else:
            assert qg.encrypt(profile, frame, key, plain) == cipher
    assert forged > 0


def test_producers_build_streams_equal_to_checked_ones(profile, monkeypatch):
    frame, key = _material(profile)
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    cipher = qg.encrypt(profile, frame, key, plain)
    square = qg.get_quasigroup(profile, frame.s, 1, frame.nonce)
    made = [plain, cipher, qg.decrypt(profile, frame, key, cipher),
            qg.encrypt_level(square, 3, cipher),
            qg.decrypt_level(square, 3, cipher)]
    for stream in made:
        assert type(stream.symbols) is tuple
        assert stream == qg.SymbolStream(stream.order, stream.symbols)
    # none of them re-runs the range check
    checks = []
    monkeypatch.setattr(qg.SymbolStream, "__post_init__",
                        lambda self: checks.append(self))
    qg.decrypt(profile, frame, key, qg.encrypt(
        profile, frame, key, qg.text_to_symbols("ATTACK AT DAWN")))
    qg.decrypt_level(square, 3, qg.encrypt_level(square, 3, cipher))
    assert checks == []


def test_wider_declared_order_is_accepted_when_symbols_fit(profile):
    frame, key = _material(profile)
    plain = qg.SymbolStream(frame.s, (1, frame.r, 2))
    cipher = qg.encrypt(profile, frame, key, plain)
    wide = qg.SymbolStream(frame.s + 9, cipher.symbols)
    assert qg.decrypt(profile, frame, key, wide).symbols == plain.symbols


def test_key_mismatch(profile):
    import dataclasses
    frame, key = _material(profile)
    other_frame = qg.generate_frame(profile, 12345)
    with pytest.raises(KeyMismatch):
        qg.encrypt(profile, other_frame,
                   key, qg.SymbolStream(other_frame.r, (1,)))
    bad = dataclasses.replace(key, multipliers=(0,) + key.multipliers[1:])
    with pytest.raises(KeyMismatch):
        qg.encrypt(profile, frame, bad, qg.SymbolStream(frame.r, (1,)))


def test_key_with_a_multiplier_too_few_is_a_mismatch(profile):
    import dataclasses
    frame, key = _material(profile)
    short = dataclasses.replace(key, multipliers=key.multipliers[:-1])
    with pytest.raises(KeyMismatch, match="^expected 6 multipliers, got 5$"):
        qg.encrypt(profile, frame, short, qg.SymbolStream(frame.r, (1,)))


@pytest.mark.parametrize("q", [1.5, "3"], ids=["float", "str"])
@pytest.mark.parametrize("run", [qg.encrypt, qg.decrypt],
                         ids=["encrypt", "decrypt"])
def test_multiplier_that_is_not_an_integer_is_a_mismatch(profile, run, q):
    frame, key = _material(profile)
    odd = dataclasses.replace(key, multipliers=(1, q) + key.multipliers[2:])
    with pytest.raises(KeyMismatch,
                       match=f"^multiplier {q!r} at level 2 is not an integer$"):
        run(profile, frame, odd, qg.SymbolStream(frame.r, (1,)))


@pytest.mark.parametrize("count", [5, 7], ids=["one-too-few", "one-too-many"])
@pytest.mark.parametrize("run", [qg.encrypt, qg.decrypt],
                         ids=["encrypt", "decrypt"])
def test_frame_with_the_wrong_index_count_is_a_mismatch(profile, run, count):
    frame, key = _material(profile)
    odd = dataclasses.replace(frame, indices=(frame.indices * 2)[:count])
    with pytest.raises(KeyMismatch,
                       match=f"^expected 6 frame indices, got {count}$"):
        run(profile, odd, key, qg.SymbolStream(frame.r, (1,)))


@pytest.mark.parametrize("field, keyed_by", [
    (dict(s=900), None),
    (dict(r=20), None),
    (dict(r=129, s=200), None),
    (dict(s=5000), None),
    (dict(indices=(1, 1.5, 1, 1, 1, 1)), None),
    (dict(nonce=500.5), None),
    (dict(r=51.5), None),
    (dict(s=171.0), None),
    (dict(r="51"), None),
    (dict(s=True), None),
    (dict(issued_at=0.5), None),
    (dict(issued_at="0"), None),
    (dict(r=100, s=50), None),
    (dict(r=200, s=100), None),
    (dict(r=20), dict(r_min=8)),
], ids=["s-900", "r-20", "r-129", "s-5000", "index-float", "nonce-float",
        "r-float", "s-float", "r-str", "s-bool", "issued_at-float",
        "issued_at-str", "r-not-below-s", "r-200-s-100", "wider-profile-key"])
@pytest.mark.parametrize("run", [qg.encrypt, qg.decrypt],
                         ids=["encrypt", "decrypt"])
def test_cipher_refuses_every_frame_keying_refuses(profile, run, field,
                                                   keyed_by, monkeypatch):
    # the key fits the frame, so only the frame's own problem can refuse
    # it: a hand-built key, or one derived under a profile that accepts it
    frame = dataclasses.replace(qg.generate_frame(profile, SCRAMBLE_SEED), **field)
    if keyed_by is None:
        orders = qg.level_orders(profile, frame)
        key = qg.HiddenKey(multipliers=(1,) * len(orders), level_orders=orders)
    else:
        key = qg.derive_hidden_key(dataclasses.replace(profile, **keyed_by),
                                   frame)
    with pytest.raises(FrameInvalid) as refused:
        qg.derive_hidden_key(profile, frame)

    def no_draw(*args):
        raise AssertionError("a permutation was drawn")

    monkeypatch.setattr(qg.qgdb, "_isotopy", no_draw)
    with pytest.raises(FrameInvalid) as exc:
        run(profile, frame, key, qg.SymbolStream(1, (1,)))
    assert str(exc.value) == str(refused.value)
    assert "_own_rows" not in vars(key)       # the key holds no rows


# --- text mapping -------------------------------------------------------------------------

LETTERS = qg.Alphabet("letters", {"A": 1, "B": 2}, {1: "A", 2: "B"})
TEXT_ALPHABETS = [qg.LATIN27, qg.LATIN41, LETTERS]


def test_text_to_symbols_example():
    assert qg.text_to_symbols("K K", qg.LATIN27).symbols == (11, 27, 11)


def test_text_to_symbols_empty():
    assert qg.text_to_symbols("", qg.LATIN27).symbols == ()


def test_unmappable_character():
    with pytest.raises(UnmappableCharacter) as err:
        qg.text_to_symbols("ABéC", qg.LATIN27)
    assert err.value.position == 3


def test_unmappable_character_after_folded_characters():
    with pytest.raises(UnmappableCharacter) as err:
        qg.text_to_symbols("ab\tc\u3000d?e?", qg.LATIN27)
    assert (err.value.position, err.value.char) == (7, "?")
    # without a space symbol, a folded whitespace character is the failure
    with pytest.raises(UnmappableCharacter) as err:
        qg.text_to_symbols("ab\u3000a\tb", LETTERS)
    assert (err.value.position, err.value.char) == (3, "\u3000")


# Alphabet characters, foldable whitespace, unmappable ASCII (including the
# control codes whose code points equal symbols) and non-ASCII characters.
_MIXED = ("ABKZabkz .,09'\n" + "\t\r\x0b\x1c\x85\xa0\u3000"
          + "?!~\x00\x01\x02\x1b\x7f" + "\xe9\xff\u0100\u20ac\U0001F600")


def _dict_text_to_symbols(text, alphabet):
    """Reference: map each folded character through char_to_symbol."""
    folded = qg.fold_text(text)
    for pos, ch in enumerate(folded):
        if ch not in alphabet.char_to_symbol:
            raise UnmappableCharacter(pos + 1, text[pos])
    return tuple(alphabet.char_to_symbol[ch] for ch in folded)


@given(text=st.text(alphabet="ABab .\t\u3000", max_size=40)
       | st.text(alphabet=_MIXED, max_size=40),
       alphabet=st.sampled_from(TEXT_ALPHABETS))
def test_text_to_symbols_matches_dict_oracle(text, alphabet):
    try:
        want = _dict_text_to_symbols(text, alphabet)
    except UnmappableCharacter as exc:
        with pytest.raises(UnmappableCharacter) as err:
            qg.text_to_symbols(text, alphabet)
        assert (err.value.position, err.value.char) == (exc.position, exc.char)
    else:
        assert qg.text_to_symbols(text, alphabet).symbols == want


@given(data=st.data())
def test_symbols_to_text_matches_dict_oracle(data):
    alphabet = data.draw(st.sampled_from(TEXT_ALPHABETS))
    symbols = data.draw(st.lists(st.integers(1, alphabet.size), max_size=40))
    stream = qg.SymbolStream(alphabet.size, symbols)
    assert qg.symbols_to_text(stream, alphabet) == "".join(
        alphabet.symbol_to_char[sym] for sym in symbols)


def _alphabet(chars):
    return qg.Alphabet("test", {ch: i for i, ch in enumerate(chars, 1)},
                       {i: ch for i, ch in enumerate(chars, 1)})


def test_alphabet_is_a_bijection_onto_at_most_255_symbols():
    chars = "".join(map(chr, range(0x100, 0x200)))     # 256, none folds
    largest = _alphabet(chars[:255])
    assert largest.size == 255
    text = chars[254::-1]
    stream = qg.text_to_symbols(text, largest)
    assert stream.symbols == tuple(range(255, 0, -1))
    assert qg.symbols_to_text(stream, largest) == text
    for bad in (chars, ""):
        with pytest.raises(InvalidOrder):
            _alphabet(bad)
    with pytest.raises(SymbolOutOfRange):
        qg.Alphabet("gap", {"A": 1, "B": 3}, {1: "A", 3: "B"})
    with pytest.raises(SymbolOutOfRange):
        qg.Alphabet("skew", {"A": 1, "B": 2}, {1: "B", 2: "A"})


def test_symbols_to_text_example():
    assert qg.symbols_to_text(qg.SymbolStream(27, (11,)), qg.LATIN27) == "K"
    assert qg.symbols_to_text(qg.SymbolStream(41, (11, 27)), qg.LATIN27) == "K "


def test_symbol_zero_is_rejected():
    with pytest.raises(SymbolOutOfRange):
        qg.SymbolStream(27, (0,))


@pytest.mark.parametrize("symbols, position", [
    ((3, 27, 28, 0), 3),
    ((3, 0, 28), 2),
    ([5, 5, 5, -1], 4),
])
def test_stream_reports_first_offending_position(symbols, position):
    with pytest.raises(SymbolOutOfRange) as err:
        qg.SymbolStream(27, symbols)
    assert err.value.position == position


@given(order=st.integers(1, 300), symbols=st.lists(st.integers(-3, 303),
                                                  max_size=30))
def test_stream_accepts_exactly_the_symbols_in_range(order, symbols):
    outside = [pos for pos, sym in enumerate(symbols, 1)
               if not 1 <= sym <= order]
    if not outside:
        assert qg.SymbolStream(order, symbols).symbols == tuple(symbols)
        return
    with pytest.raises(SymbolOutOfRange) as err:
        qg.SymbolStream(order, symbols)
    assert err.value.position == outside[0]
    assert str(err.value) == (f"symbol {symbols[outside[0] - 1]} at position "
                              f"{outside[0]} outside 1..{order}")


@pytest.mark.parametrize("symbols, position", [
    ((1.5, 2), 1),
    ((2.0, 3), 1),
    ((float("nan"), 3), 1),
    ((2, 2.0), 2),                  # a set would merge 2.0 into 2
    ((1, "2"), 2),
    ((1, None, 2), 2),
], ids=["half", "whole-float", "nan", "after-its-int", "str", "none"])
@pytest.mark.parametrize("run", ["encrypt", "decrypt", "symbols_to_text"])
def test_a_symbol_that_is_not_an_integer_is_out_of_range(profile, run, symbols,
                                                         position):
    # refused where the stream is built, naming the symbol's position,
    # before any level or translate table reads it
    frame, key = _material(profile)
    steps = {"encrypt": lambda s: qg.encrypt(profile, frame, key, s),
             "decrypt": lambda s: qg.decrypt(profile, frame, key, s),
             "symbols_to_text": qg.symbols_to_text}
    with pytest.raises(SymbolOutOfRange) as err:
        steps[run](qg.SymbolStream(27, symbols))
    assert err.value.position == position


def test_numpy_integer_symbols_are_symbols(profile):
    frame, key = _material(profile)
    plain = qg.text_to_symbols("ATTACK AT DAWN")
    wide = qg.SymbolStream(frame.r, tuple(np.array(plain.symbols, dtype=np.int64)))
    assert qg.encrypt(profile, frame, key, wide) == qg.encrypt(
        profile, frame, key, plain)
    # 300 + uint8 overflows numpy's sum, so these are judged one by one
    narrow = (300,) + tuple(np.array([1, 28, 2], dtype=np.uint8))
    assert qg.SymbolStream(4096, narrow).symbols == (300, 1, 28, 2)
    with pytest.raises(SymbolOutOfRange) as err:
        qg.SymbolStream(27, narrow)
    assert err.value.position == 1


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16,
                                   np.int32, np.uint32])
def test_narrow_numpy_symbols_are_judged_without_a_warning(dtype):
    # two maxima overflow the dtype: numpy 2 refuses the sum's 2**62 start
    # and judges them one by one; numpy 1 widens the sum to 64 bits
    top = int(np.iinfo(dtype).max)
    symbols = tuple(np.array([top, top, 1], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qg.SymbolStream(top, symbols).symbols == (top, top, 1)
        with pytest.raises(SymbolOutOfRange) as err:
            qg.SymbolStream(top - 1, symbols)
        alphabet = tuple(np.arange(1, 28, dtype=dtype))
        assert qg.SymbolStream(27, alphabet).symbols == tuple(range(1, 28))
    assert err.value.position == 1


@pytest.mark.parametrize("dtype, top, low", [(np.int64, 2**63 - 1, 2**63 - 1),
                                             (np.uint64, 2**64 - 1, 5)])
def test_wide_numpy_symbols_are_judged_without_a_warning(dtype, top, low):
    # the sum's 2**62 start plus a 64-bit maximum overflows numpy's scalar
    # add, so these are judged one by one
    symbols = tuple(np.array([top, low, 1], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qg.SymbolStream(top, symbols).symbols == (top, low, 1)
        with pytest.raises(SymbolOutOfRange) as err:
            qg.SymbolStream(top - 1, symbols)
    assert err.value.position == 1


def test_float16_symbols_are_refused_without_a_warning():
    # the sum's 2**62 start overflows float16, so they are judged one by one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SymbolOutOfRange) as err:
            qg.SymbolStream(27, tuple(np.array([3, 5, 1], dtype=np.float16)))
    assert err.value.position == 1


def test_stream_does_not_follow_its_source_list():
    symbols = [1, 2, 3]
    stream = qg.SymbolStream(4, symbols)
    symbols[0] = 4
    assert stream.symbols == (1, 2, 3)
    assert stream == qg.SymbolStream(4, (1, 2, 3))


def test_stream_iterates_its_symbols():
    stream = qg.SymbolStream(4, (3, 1, 4, 1))
    assert list(stream) == list(stream.symbols) == [3, 1, 4, 1]


def test_symbols_beyond_alphabet_are_rejected():
    stream = qg.SymbolStream(41, (30,))
    with pytest.raises(SymbolOutOfRange):
        qg.symbols_to_text(stream, qg.LATIN27)
    stream = qg.SymbolStream(41, (1, 27, 30, 41))
    with pytest.raises(SymbolOutOfRange) as err:
        qg.symbols_to_text(stream, qg.LATIN27)
    assert err.value.position == 3
    # a symbol above 255 fails in bytes(), before any alphabet is consulted
    stream = qg.SymbolStream(4096, (1, 27, 2, 300, 30))
    with pytest.raises(SymbolOutOfRange) as err:
        qg.symbols_to_text(stream, qg.LATIN27)
    assert err.value.position == 4
    assert str(err.value) == "symbol 300 at position 4 exceeds alphabet size 27"


def test_fold_rules():
    assert qg.fold_text("Hello,\tWorld\n") == "HELLO, WORLD "
    assert qg.fold_text("a z") == "A Z"


def test_fold_text_matches_its_definition_on_all_of_unicode():
    chars = "".join(map(chr, itertools.chain(range(0xD800),
                                             range(0xE000, 0x110000))))
    want = "".join(" " if ch.isspace() else
                   ch.upper() if "a" <= ch <= "z" else
                   ch
                   for ch in chars)
    assert qg.fold_text(chars) == want


@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz \t\n",
               max_size=80))
def test_text_round_trip_after_folding(text):
    stream = qg.text_to_symbols(text, qg.LATIN27)
    assert qg.symbols_to_text(stream, qg.LATIN27) == qg.fold_text(text)


def test_latin41_extensions():
    table = qg.LATIN41.char_to_symbol
    assert qg.LATIN41.size == 41
    assert table["."] == 28
    assert table[","] == 29
    assert table["0"] == 30
    assert table["9"] == 39
    assert table["'"] == 40
    assert table["\n"] == 41
    assert qg.symbols_to_text(qg.SymbolStream(41, (41,)), qg.LATIN41) == "\n"


def test_latin27_and_latin41_agree_on_letters():
    for ch in "ABCXYZ ":
        assert qg.LATIN27.char_to_symbol[ch] == qg.LATIN41.char_to_symbol[ch]


# --- container ---------------------------------------------------------------------------

def test_container_round_trip(profile):
    frame, key = _material(profile)
    payload = qg.encrypt(profile, frame, key,
                         qg.SymbolStream(frame.r, (3, 1, 4, 1, 5)))
    fp = qg.profile_fingerprint(b"profile bytes")
    blob = qg.pack_container(fp, frame, payload)
    box = qg.unpack_container(blob)
    assert box.fingerprint == fp
    assert box.frame() == qg.KeyFrame(frame.r, frame.s, frame.indices,
                                      frame.nonce, issued_at=0)
    assert box.symbols == payload.symbols


def test_container_magic_and_version(profile):
    frame, key = _material(profile)
    blob = qg.pack_container(0, frame, qg.SymbolStream(frame.r, ()))
    assert blob[:4] == b"QGE1"
    with pytest.raises(ContainerError):
        qg.unpack_container(b"NOPE" + blob[4:])
    with pytest.raises(ContainerError):
        qg.unpack_container(blob[:4] + b"\x09" + blob[5:])


def test_container_truncation(profile):
    frame, key = _material(profile)
    blob = qg.pack_container(0, frame, qg.SymbolStream(frame.r, (1, 2, 3)))
    with pytest.raises(ContainerError):
        qg.unpack_container(blob[:10])
    with pytest.raises(ContainerError):
        qg.unpack_container(blob[:-2])


def test_symbol_text_round_trip():
    stream = qg.SymbolStream(41, (19, 15, 1, 3, 30))
    text = qg.format_symbols(stream)
    assert text == "19 15 1 3 30\n"
    assert qg.parse_symbols("# header\n" + text, 41) == stream


def test_container_rejects_oversized_index(profile):
    frame = qg.KeyFrame(r=35, s=41, indices=(70000, 1, 1, 1, 1, 1), nonce=500)
    with pytest.raises(ContainerError):
        qg.pack_container(0, frame, qg.SymbolStream(35, ()))


def test_container_rejects_fields_that_do_not_fit():
    frame = qg.KeyFrame(r=35, s=41, indices=(1, 2, 3, 4, 5, 6), nonce=500)
    empty = qg.SymbolStream(35, ())
    for bad in (dict(nonce=-1), dict(nonce=2**64), dict(r=70000), dict(s=70000)):
        with pytest.raises(ContainerError):
            qg.pack_container(0, dataclasses.replace(frame, **bad), empty)
    with pytest.raises(ContainerError):
        qg.pack_container(0, frame, qg.SymbolStream(70000, (1, 70000)))
    assert qg.unpack_container(qg.pack_container(0, frame, empty)).frame() == \
        dataclasses.replace(frame, issued_at=0)
