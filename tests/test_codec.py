import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher.errors import (
    CiphertextSymbolTooLarge,
    ContainerError,
    ForgedCiphertext,
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
    # Orders on both sides of 256, where the storage switches from uint8 to
    # uint16 and the padded rows switch to shared int objects.
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


def test_prefix_causality(profile):
    # Ciphertext position i depends only on plaintext positions 1..i.
    frame, key = _material(profile)
    base = [1] * 40
    reference = qg.encrypt(profile, frame, key,
                           qg.SymbolStream(frame.r, tuple(base))).symbols
    for i in range(40):
        changed = list(base)
        changed[i] = 2
        out = qg.encrypt(profile, frame, key,
                         qg.SymbolStream(frame.r, tuple(changed))).symbols
        assert out[:i] == reference[:i]
        # rows are permutations, so a changed input symbol always moves
        # the output at the same position
        assert out[i] != reference[i]


def test_plaintext_symbol_too_large(profile):
    frame, key = _material(profile)
    plain = qg.SymbolStream(frame.r + 10, (1, frame.r + 1))
    with pytest.raises(PlaintextSymbolTooLarge) as err:
        qg.encrypt(profile, frame, key, plain)
    assert err.value.position == 2


def test_ciphertext_symbol_too_large(profile):
    frame, key = _material(profile)
    cipher = qg.SymbolStream(frame.s + 1, (frame.s + 1,))
    with pytest.raises(CiphertextSymbolTooLarge):
        qg.decrypt(profile, frame, key, cipher)
    cipher = qg.SymbolStream(frame.s + 9, (1, frame.s, frame.s + 4, frame.s + 9))
    with pytest.raises(CiphertextSymbolTooLarge) as err:
        qg.decrypt(profile, frame, key, cipher)
    assert (err.value.position, err.value.symbol) == (3, frame.s + 4)


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


@pytest.mark.parametrize("count", [5, 7], ids=["one-too-few", "one-too-many"])
@pytest.mark.parametrize("run", [qg.encrypt, qg.decrypt],
                         ids=["encrypt", "decrypt"])
def test_frame_with_the_wrong_index_count_is_a_mismatch(profile, run, count):
    frame, key = _material(profile)
    odd = dataclasses.replace(frame, indices=(frame.indices * 2)[:count])
    with pytest.raises(KeyMismatch,
                       match=f"^expected 6 frame indices, got {count}$"):
        run(profile, odd, key, qg.SymbolStream(frame.r, (1,)))


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
