"""Indexed quasigroup provider and the shared network profile.

Instead of storing a database of isotopes (superexponentially many even at
moderate orders), each (order, index, nonce) triple is expanded on demand:
three seeded permutations are derived from the profile's database seed and
applied as an isotopy to a canonical cyclic base square.  The mapping is a
pure function, so every device holding the same profile reconstructs the
same table -- and because the nonce participates, the table behind a given
index changes whenever the authority rotates the nonce.

This module only draws the permutations; latin builds whatever is made
from them.  The cipher needs no table: frame_rows draws a frame's
permutations once and hands them, with a key's leaders, to latin, which
builds both directions' chain rows from them.  It keeps nothing (a derived
key holds the pair) and checks nothing: its frame and key are ones keying
has judged.
get_quasigroup has latin apply the isotopy to its base square, for the API,
and keeps no table; it judges its own arguments, which come from outside.

The text alphabets live here too, because the profile names one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping

from .errors import IndexOutOfRange, InvalidOrder, ProfileInvalid, SymbolOutOfRange
from .latin import (MAX_LEVELS, MAX_ORDER, FrameRows, LatinSquare,
                    Permutation, apply_isotopy, base_square, chain_rows,
                    check_order, unchain_rows)
from .seeds import MASK64, derive_seed, permutations_from_seeds

# Default database seed: first 16 hex digits of the fractional part of pi,
# a fixed nothing-up-my-sleeve constant.
DEFAULT_DB_SEED = 0x243F6A8885A308D3

PROFILE_VERSION = 1

# Most table entries one frame may name (split tables of order r_max, the
# rest of order s_max): a two-level frame at the order cap.  Its chain rows
# are sliced as messages reach them; once they reach every row, the rows
# take 8 bytes an entry each way, about 515 MB in both directions, and no
# table or inverse is built beside them.
MAX_FRAME_ENTRIES = 2 * MAX_ORDER ** 2


# --- alphabets ---------------------------------------------------------------

# The codec carries an alphabet's symbols through str.translate as latin-1
# code points, one byte each, so an alphabet has at most 255 symbols.
MAX_ALPHABET_SIZE = 255


@dataclass(frozen=True)
class Alphabet:
    """Invertible character coding: char_to_symbol and symbol_to_char are
    mutual inverses between single characters and the symbols 1..size,
    with size at most MAX_ALPHABET_SIZE.

    The codec's translate tables are derived here: _strip deletes every
    character of the alphabet, _to_symbol maps each character to the code
    point of its symbol, and _to_char maps that code point back to the
    character."""

    id: str
    char_to_symbol: Mapping = field(repr=False)
    symbol_to_char: Mapping = field(repr=False)
    _strip: dict = field(init=False, repr=False, compare=False)
    _to_symbol: dict = field(init=False, repr=False, compare=False)
    _to_char: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = len(self.char_to_symbol)
        if not 1 <= size <= MAX_ALPHABET_SIZE:
            raise InvalidOrder(f"alphabet {self.id!r} has {size} symbols, "
                               f"outside 1..{MAX_ALPHABET_SIZE}")
        if (sorted(self.char_to_symbol.values()) != list(range(1, size + 1))
                or dict(self.symbol_to_char)
                != {sym: ch for ch, sym in self.char_to_symbol.items()}):
            raise SymbolOutOfRange(f"alphabet {self.id!r} is not a bijection "
                                   f"between its characters and 1..{size}")
        object.__setattr__(self, "_strip", str.maketrans(
            "", "", "".join(self.char_to_symbol)))
        object.__setattr__(self, "_to_symbol", str.maketrans(
            {ch: chr(sym) for ch, sym in self.char_to_symbol.items()}))
        object.__setattr__(self, "_to_char", str.maketrans(
            {chr(sym): ch for sym, ch in self.symbol_to_char.items()}))

    @property
    def size(self) -> int:
        return len(self.char_to_symbol)


def _make_alphabet(alphabet_id: str, chars: str) -> Alphabet:
    c2s = {ch: i for i, ch in enumerate(chars, 1)}
    s2c = {i: ch for i, ch in enumerate(chars, 1)}
    return Alphabet(id=alphabet_id, char_to_symbol=c2s, symbol_to_char=s2c)


# A..Z plus space is the default; the extension adds punctuation and digits.
LATIN27 = _make_alphabet("latin27", "ABCDEFGHIJKLMNOPQRSTUVWXYZ ")
LATIN41 = _make_alphabet("latin41", "ABCDEFGHIJKLMNOPQRSTUVWXYZ .,0123456789'\n")

ALPHABETS = {a.id: a for a in (LATIN27, LATIN41)}


def get_alphabet(alphabet_id: str) -> Alphabet:
    try:
        return ALPHABETS[alphabet_id]
    except KeyError:
        raise KeyError(f"unknown alphabet {alphabet_id!r}; "
                       f"choose from {sorted(ALPHABETS)}") from None


# --- network profile -----------------------------------------------------------

@dataclass(frozen=True)
class NetworkProfile:
    """Network-wide shared constants, distributed once out of band.

    nonce_lower / nonce_upper are exclusive bounds on the per-frame nonce
    (a validity duration in abstract time units): every issued nonce t
    satisfies nonce_lower < t < nonce_upper.  split is the number of
    leading encryption levels that use tables of order r; the remaining
    levels use order s.  Left out, split is half the levels rounded up.
    """

    profile_id: str = "default"
    db_seed: int = DEFAULT_DB_SEED
    r_min: int = 32
    r_max: int = 128
    s_max: int = 256
    level_count: int = 6
    split: int | None = None
    index_max: int = 1000
    nonce_upper: int = 1000
    nonce_lower: int = 100
    alphabet_id: str = LATIN27.id

    def __post_init__(self):
        if self.r_min < 2:
            raise ProfileInvalid("r_min must be >= 2")
        if self.r_min > self.r_max:
            raise ProfileInvalid("r_min must be <= r_max")
        if self.r_max >= self.s_max:
            raise ProfileInvalid("r_max must be < s_max")
        if self.s_max > MAX_ORDER:
            raise ProfileInvalid(f"s_max {self.s_max} exceeds maximum {MAX_ORDER}")
        if not 2 <= self.level_count <= MAX_LEVELS:
            raise ProfileInvalid(f"level_count must be in 2..{MAX_LEVELS}")
        if self.split is None:
            object.__setattr__(self, "split", (self.level_count + 1) // 2)
        if not 1 <= self.split < self.level_count:
            raise ProfileInvalid("split must satisfy 1 <= split < level_count")
        entries = (self.split * self.r_max ** 2
                   + (self.level_count - self.split) * self.s_max ** 2)
        if entries > MAX_FRAME_ENTRIES:
            raise ProfileInvalid(f"a frame could name {entries} table entries, "
                                 f"more than the maximum {MAX_FRAME_ENTRIES}")
        # Indices and nonces are drawn from 64-bit streams and fold into
        # 64-bit seeds, so both ranges fit 64 bits.
        if not 1 <= self.index_max <= MASK64:
            raise ProfileInvalid("index_max must be in 1..2**64 - 1")
        if self.nonce_lower <= 0:
            raise ProfileInvalid("nonce_lower must be positive")
        # The strict nonce interval (nonce_lower, nonce_upper) must contain
        # at least one integer for frame generation to succeed.
        if self.nonce_upper <= self.nonce_lower + 1:
            raise ProfileInvalid("nonce_upper must exceed nonce_lower + 1")
        if self.nonce_upper > 1 << 64:
            raise ProfileInvalid("nonce_upper must be at most 2**64")
        if not 0 <= self.db_seed <= MASK64:
            raise ProfileInvalid("db_seed must be an unsigned 64-bit integer")
        if self.alphabet_id not in ALPHABETS:
            raise ProfileInvalid(f"unknown alphabet_id {self.alphabet_id!r}")


def default_profile() -> NetworkProfile:
    return NetworkProfile()


# --- profile file format ----------------------------------------------------

# File key of each NetworkProfile field, in file order (the field order);
# four fields go by the paper's names k, m, T and T1.  Both profile_to_json
# and profile_from_json follow this one mapping.
_PROFILE_KEYS = {
    {"level_count": "k", "split": "m", "nonce_upper": "T",
     "nonce_lower": "T1"}.get(f.name, f.name): f.name
    for f in fields(NetworkProfile)
}
# db_seed is a decimal string: a JSON reader using doubles loses 64-bit values.
_PROFILE_TYPES = {key: str if key in ("profile_id", "db_seed", "alphabet_id")
                  else int for key in _PROFILE_KEYS}
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list of integers"}


def _conforms(value, kind) -> bool:
    """isinstance, except that a bool is no integer and a list must hold
    integers only."""
    if kind is list:
        return isinstance(value, list) and all(_conforms(v, int) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _read_json_file(text: str, types: dict, version: int, error: type,
                    what: str) -> dict:
    """Strict reader shared by the profile and frame files.

    The text must be a JSON object whose keys are exactly `types` plus
    "version", with that integer version and each value of the kind
    `types` names (int, str, or list for a list of integers; a bool is no
    integer).  Any failure raises `error`.  Returns the object without
    its "version" key.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError includes over-long integers; RecursionError, deep nesting
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} file must hold a JSON object")
    keys = set(types) | {"version"}
    if set(obj) - keys:
        raise error(f"unknown {what} keys: {sorted(set(obj) - keys)}")
    if keys - set(obj):
        raise error(f"missing {what} keys: {sorted(keys - set(obj))}")
    found = obj.pop("version")
    if not _conforms(found, int) or found != version:
        raise error(f"unsupported {what} version {found}")
    for key, kind in types.items():
        if not _conforms(obj[key], kind):
            raise error(f"{key} must be {_TYPE_NAMES[kind]}")
    return obj


def profile_to_json(profile: NetworkProfile) -> str:
    """Serialize to the fixed-order JSON object (db_seed as decimal string)."""
    obj = {key: getattr(profile, name) for key, name in _PROFILE_KEYS.items()}
    obj["db_seed"] = str(profile.db_seed)
    obj["version"] = PROFILE_VERSION
    return json.dumps(obj, indent=2) + "\n"


def profile_from_json(text: str) -> NetworkProfile:
    """Parse a profile file; unknown or missing keys are rejected."""
    obj = _read_json_file(text, _PROFILE_TYPES, PROFILE_VERSION,
                          ProfileInvalid, "profile")
    # Only the form profile_to_json writes: int() would also take
    # whitespace, underscores, a sign, non-ASCII digits and leading zeros,
    # so that files with different bytes would name one seed.  The length
    # bound (2**64 has 20 digits) also keeps int() under its digit limit.
    seed = obj["db_seed"]
    if not (seed.isascii() and seed.isdigit() and len(seed) <= 20
            and (seed == "0" or seed[0] != "0")):
        raise ProfileInvalid("db_seed must be an unsigned decimal string "
                             "without leading zeros")
    obj["db_seed"] = int(seed)
    return NetworkProfile(**{name: obj[key] for key, name in _PROFILE_KEYS.items()})


def save_profile(profile: NetworkProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_to_json(profile))


def load_profile(path) -> NetworkProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_json(fh.read())


def profile_fingerprint(raw: bytes) -> int:
    """64-bit fingerprint of a profile file's exact bytes.

    The byte length followed by the zero-padded little-endian 64-bit words
    of the content, folded through derive_seed.  Stored in ciphertext
    containers so a decryptor can detect a mismatched profile.
    """
    parts = [len(raw)]
    padded = raw + b"\x00" * (-len(raw) % 8)
    parts.extend(int.from_bytes(padded[i:i + 8], "little")
                 for i in range(0, len(padded), 8))
    return derive_seed(parts)


# --- table generation --------------------------------------------------------

def _isotopy(db_seed: int, order: int, indices, nonce: int) -> list:
    """The permutations (alpha, beta, gamma) of each table (order, index,
    nonce), index by index, each a tuple of 1..order, from one batch of
    draws: each seed's draws do not depend on the others.  Uncached:
    frame_rows draws each order's levels once per call."""
    perms = list(map(tuple, permutations_from_seeds(
        [derive_seed((db_seed, order, index, nonce, tag))
         for index in indices for tag in (1, 2, 3)], order)))
    return [tuple(perms[i:i + 3]) for i in range(0, len(perms), 3)]


def get_quasigroup(profile: NetworkProfile, order: int, index: int,
                   nonce: int) -> LatinSquare:
    """The indexed isotope for (order, index, nonce) under this profile.

    Pure and deterministic: the same arguments always produce the same
    table, byte for byte, in any process on any platform.  Each call builds
    the table anew and keeps no reference to it.  The arguments come from
    outside the cipher (qg-dump, the API), so they are judged here: the
    order is an integer in 2..MAX_ORDER, else InvalidOrder; the index an
    integer in 1..index_max and the nonce an integer, else IndexOutOfRange.
    A bool is no integer.
    """
    if not _conforms(order, int):
        raise InvalidOrder(f"order {order!r} is not an integer")
    check_order(order, least=2)
    for name, value in (("index", index), ("nonce", nonce)):
        if not _conforms(value, int):
            raise IndexOutOfRange(f"{name} {value!r} is not an integer")
    if not 1 <= index <= profile.index_max:
        raise IndexOutOfRange(f"index {index} outside 1..{profile.index_max}")
    (isotopy,) = _isotopy(profile.db_seed, order, (index,), nonce)
    return apply_isotopy(base_square(order), *map(Permutation, isotopy))


def frame_rows(profile: NetworkProfile, orders: tuple, indices, nonce: int,
               leaders) -> tuple[FrameRows, FrameRows]:
    """The chain rows of a frame and key that keying has judged, the
    levels' orders, indices and leaders given level 1 first:
    (latin.chain_rows, latin.unchain_rows), both built from one draw of the
    levels' permutations, one batch per order, and started from the
    leaders.  Nothing is checked here, neither a table nor its inverse is
    built, and nothing is kept: the caller holds the pair, whose rows are
    sliced in place when a message first reaches them.
    """
    levels = {}                 # order -> its levels' indices, level 1 first
    for order, index in zip(orders, indices):
        levels.setdefault(order, []).append(index)
    drawn = {order: iter(_isotopy(profile.db_seed, order, group, nonce))
             for order, group in levels.items()}
    isotopies = [next(drawn[order]) for order in orders]
    return chain_rows(isotopies, leaders), unchain_rows(isotopies, leaders)
