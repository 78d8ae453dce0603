"""The encryption engine.

A single level chains the input through one table: the first output symbol
is leader * input[1], and every later output symbol is the previous output
times the next input symbol.  Decryption replays the chain with left
division.  The full encryptor stacks several levels, the first `split`
levels over tables of order r and the rest over order s; because r < s,
order-r symbols are always valid inputs to the wider tables, so the stream's
alphabet widens exactly once and every ciphertext symbol lands in 1..s.

A SymbolStream's symbols are a tuple, each an integer in 1..order; that
invariant is the only range check (a tighter limit reads the symbols only
when the declared order exceeds it).  Streams from outside input are
checked when built, by one sum of the tuple for integrality and the bounds
of its set for the range; the text edge and the levels, whose outputs are
in range by construction, skip the check.  symbols_to_text judges the
bytes it builds from the symbols, with no scan of its own.  encrypt and
decrypt keep only the checks: keying.check_key, which judges the frame as
derive_hidden_key does and the key against it and hands back the frame's
rows for both directions, started from the key's leaders (a key derived
from this very profile and frame object was judged when derived, and
holds its rows), then the stream's range.  The rest is latin.walk over
the direction's half of the rows, in its walk order; walk slices rows on
first use and raises ForgedCiphertext.

Text handling lives here too, over the alphabets defined with the profile
in qgdb (re-exported from this module).
"""

from __future__ import annotations

import operator
import string
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CiphertextSymbolTooLarge,
    ContainerError,
    LeaderOutOfRange,
    PlaintextSymbolTooLarge,
    SymbolOutOfRange,
    UnmappableCharacter,
)
from .keying import HiddenKey, KeyFrame, check_key
from .latin import LatinSquare, chain, unchain, walk
# ALPHABETS, LATIN41 and get_alphabet are imported for callers of codec.
from .qgdb import (ALPHABETS, LATIN27, LATIN41, Alphabet,  # noqa: F401
                   NetworkProfile, get_alphabet)


@dataclass(frozen=True)
class SymbolStream:
    """Symbols stored as a tuple, each in 1..order (the alphabet bound)."""

    order: int
    symbols: tuple

    def __post_init__(self):
        if self.order < 1:
            raise SymbolOutOfRange(f"stream order must be >= 1, got {self.order}")
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if symbols and not _all_symbols(symbols, self.order):
            pos, sym = _first_outside(symbols, self.order)
            raise SymbolOutOfRange(
                f"symbol {sym} at position {pos} outside 1..{self.order}",
                position=pos)

    @classmethod
    def _trusted(cls, order: int, symbols) -> "SymbolStream":
        """A stream whose producer guarantees every symbol in 1..order, built
        without the range check."""
        stream = object.__new__(cls)
        object.__setattr__(stream, "order", order)
        object.__setattr__(stream, "symbols", tuple(symbols))
        return stream

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def _exceeds(stream: SymbolStream, limit: int) -> bool:
    """True if some symbol of the stream is above `limit`."""
    return stream.order > limit and max(stream.symbols, default=0) > limit


def _all_symbols(symbols: tuple, order: int) -> bool:
    """True if every symbol is an integer in 1..order.  Integrality is
    judged on the tuple, as a set would merge 2.0 into 2: a sum of integers
    is one, and a sum with anything else is not or raises TypeError.  The
    sum starts at 2**62, which still fits a C long (CPython's fast path for
    plain ints) but no numpy integer type narrower than 64 bits, so under
    numpy 2 such a symbol raises OverflowError at once instead of wrapping
    (numpy 1 widens the sum to 64 bits).  A 64-bit numpy sum that
    overflows raises FloatingPointError instead of warning.  The range is
    judged on the set, which holds at most `order` values when it is met."""
    try:
        with np.errstate(over="raise"):
            operator.index(sum(symbols, 1 << 62))
    except (TypeError, OverflowError, FloatingPointError):
        # no integer, or a numpy sum that cannot hold it: symbol by symbol
        return all(_is_symbol(sym, order) for sym in symbols)
    values = set(symbols)
    return min(values) >= 1 and max(values) <= order


def _is_symbol(sym, limit: int) -> bool:
    """True if sym is an integer in 1..limit."""
    try:
        return 1 <= operator.index(sym) <= limit
    except TypeError:
        return False


def _first_outside(symbols: tuple, limit: int) -> tuple:
    """(position, symbol) of the first symbol that is not an integer in
    1..limit; error path."""
    return next((pos, sym) for pos, sym in enumerate(symbols, 1)
                if not _is_symbol(sym, limit))


# --- text <-> symbols ---------------------------------------------------------

# Every code point with str.isspace() lies in U+0000..U+3000 (the ideographic
# space), so the table builds in about 1 ms; tests check all of Unicode.
_WHITESPACE = "".join(filter(str.isspace, map(chr, range(0x3001))))
_FOLD = str.maketrans(string.ascii_lowercase + _WHITESPACE,
                      string.ascii_uppercase + " " * len(_WHITESPACE))


def fold_text(text: str) -> str:
    """Canonical form before mapping: ASCII lowercase is uppercased and any
    whitespace character becomes a single space.  Other characters pass
    through unchanged."""
    return text.translate(_FOLD)


def text_to_symbols(text: str, alphabet: Alphabet = LATIN27) -> SymbolStream:
    """Fold the text and map each character to its symbol.

    Raises UnmappableCharacter naming the 1-indexed position and the
    original (pre-fold) character of the first failure.
    """
    folded = fold_text(text)
    if folded.translate(alphabet._strip):
        # only characters outside the alphabet survive the strip; folding
        # keeps positions, so the position in `folded` is the
        # position in `text`
        pos = next(pos for pos, ch in enumerate(folded)
                   if ch not in alphabet.char_to_symbol)
        raise UnmappableCharacter(pos + 1, text[pos])
    # each character becomes the code point of its symbol (at most 255)
    symbols = folded.translate(alphabet._to_symbol).encode("latin-1")
    return SymbolStream._trusted(alphabet.size, symbols)


def symbols_to_text(stream: SymbolStream, alphabet: Alphabet = LATIN27) -> str:
    """Inverse of text_to_symbols on folded text.

    The symbols are read into bytes once; a symbol above 255 fails there,
    and one above the alphabet size survives deleting the alphabet's
    symbol bytes."""
    try:
        raw = bytes(stream.symbols)
    except ValueError:
        raw = None
    if raw is None or raw.translate(None, bytes(range(1, alphabet.size + 1))):
        pos, sym = _first_outside(stream.symbols, alphabet.size)
        raise SymbolOutOfRange(
            f"symbol {sym} at position {pos} exceeds alphabet "
            f"size {alphabet.size}", position=pos)
    return raw.decode("latin-1").translate(alphabet._to_char)


# --- single-level transformation ----------------------------------------------

def _check_level_args(square: LatinSquare, leader: int, stream: SymbolStream):
    if not 1 <= leader <= square.order:
        raise LeaderOutOfRange(f"leader {leader} outside 1..{square.order}")
    if _exceeds(stream, square.order):
        pos, sym = _first_outside(stream.symbols, square.order)
        raise SymbolOutOfRange(
            f"symbol {sym} at position {pos} exceeds table order "
            f"{square.order}", position=pos)


def encrypt_level(square: LatinSquare, leader: int,
                  stream: SymbolStream) -> SymbolStream:
    """One chained pass: out[1] = leader * in[1], out[i] = out[i-1] * in[i]."""
    _check_level_args(square, leader, stream)
    return SymbolStream._trusted(square.order,
                                 chain(square, leader, stream.symbols))


def decrypt_level(square: LatinSquare, leader: int,
                  cipher: SymbolStream) -> SymbolStream:
    """Exact inverse of encrypt_level over the same table and leader:
    out[1] = leader \\ in[1], out[i] = in[i-1] \\ in[i]."""
    _check_level_args(square, leader, cipher)
    return SymbolStream._trusted(square.order,
                                 unchain(square, leader, cipher.symbols))


# --- multi-level indexed encryptor ---------------------------------------------

def encrypt(profile: NetworkProfile, frame: KeyFrame, key: HiddenKey,
            plaintext: SymbolStream) -> SymbolStream:
    """Run the plaintext through every level of the indexed encryptor.

    Level j uses the table selected by (level order, frame index j, nonce)
    and the j-th multiplier as leader.  Plaintext symbols must fit the
    first table (1..r); the result has order s.
    """
    rows, _ = check_key(profile, frame, key)
    if _exceeds(plaintext, frame.r):
        raise PlaintextSymbolTooLarge(*_first_outside(plaintext.symbols, frame.r),
                                      frame.r)
    return SymbolStream._trusted(frame.s, walk(rows, plaintext.symbols))


def decrypt(profile: NetworkProfile, frame: KeyFrame, key: HiddenKey,
            ciphertext: SymbolStream) -> SymbolStream:
    """Exact inverse of encrypt: levels in reverse order, left division in
    closed form over each table's permutations (latin.unchain_rows), with
    no table or inverse built.  The result has order r.

    A ciphertext in 1..s that no plaintext encrypts to under this key can
    leave symbols above r once the order-s levels are undone; the first
    order-r level then raises ForgedCiphertext.  The rows mark such a
    symbol, and latin.walk names its position, level and order.
    """
    _, rows = check_key(profile, frame, key)
    if _exceeds(ciphertext, frame.s):
        raise CiphertextSymbolTooLarge(*_first_outside(ciphertext.symbols, frame.s),
                                       frame.s)
    return SymbolStream._trusted(frame.r, walk(rows, ciphertext.symbols))


# --- ciphertext container -------------------------------------------------------

CONTAINER_MAGIC = b"QGE1"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4sBQQHHH")


@dataclass(frozen=True)
class Container:
    """Parsed ciphertext container: enough to rebuild the frame (minus
    issued_at, which decryption does not need) plus the payload."""

    fingerprint: int
    nonce: int
    r: int
    s: int
    indices: tuple
    symbols: tuple

    def frame(self) -> KeyFrame:
        return KeyFrame(r=self.r, s=self.s, indices=self.indices,
                        nonce=self.nonce, issued_at=0)


def pack_container(fingerprint: int, frame: KeyFrame,
                   payload: SymbolStream) -> bytes:
    """Binary layout, all fields little-endian: magic, version byte,
    u64 profile fingerprint, u64 nonce, u16 r/s/k, k u16 indices,
    u64 payload length, then the payload as u16 symbols."""
    n = len(payload.symbols)
    try:
        return (_HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, fingerprint,
                             frame.nonce, frame.r, frame.s, len(frame.indices))
                + struct.pack(f"<{len(frame.indices)}H", *frame.indices)
                + struct.pack(f"<Q{n}H", n, *payload.symbols))
    except struct.error as exc:
        raise ContainerError(f"frame or payload does not fit the container: "
                             f"{exc}") from None


def unpack_container(blob: bytes) -> Container:
    if len(blob) < _HEADER.size:
        raise ContainerError("container truncated before header")
    magic, version, fingerprint, nonce, r, s, k = _HEADER.unpack_from(blob)
    if magic != CONTAINER_MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise ContainerError(f"unsupported container version {version}")
    off = _HEADER.size
    need = off + 2 * k + 8
    if len(blob) < need:
        raise ContainerError("container truncated in header")
    indices = struct.unpack_from(f"<{k}H", blob, off)
    off += 2 * k
    (n,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) != off + 2 * n:
        raise ContainerError(
            f"payload length mismatch: header says {n} symbols, "
            f"container holds {(len(blob) - off) // 2}")
    symbols = struct.unpack_from(f"<{n}H", blob, off)
    return Container(fingerprint=fingerprint, nonce=nonce, r=r, s=s,
                     indices=indices, symbols=symbols)


# --- printable symbol text mode ----------------------------------------------------

def format_symbols(stream: SymbolStream) -> str:
    """Space-separated decimal symbols on one line."""
    return " ".join(str(s) for s in stream.symbols) + "\n"


def parse_symbols(text: str, order: int) -> SymbolStream:
    """Parse space/newline-separated decimal symbols; lines starting with
    '#' are comments and are skipped."""
    tokens = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        tokens.extend(line.split())
    try:
        symbols = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise ContainerError(f"not a decimal symbol: {exc}") from None
    return SymbolStream(order=order, symbols=symbols)
