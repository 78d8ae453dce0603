"""Latin-square algebra over the symbols 1..n.

A quasigroup's multiplication table is a Latin square: every row and every
column is a permutation of 1..n.  This module checks orders, builds every
table (the cyclic base_square, its isotopes by apply_isotopy, and tables
checked by validate_latin_square), multiplies, left-divides, materializes
the left-inverse parastrophe, and owns the cipher's chain loops, one per
direction, each carrying two levels per pass: it is the only module that
builds a table or reads its storage.  A single level runs the loop beside
an identity level, over the rows of the padded table (or of its inverse)
read in place.  A frame's levels run on rows sliced from each table's
isotopy of Z_n (chain_rows, unchain_rows), so encryption and decryption
build no table and no inverse, even for a ciphertext that no plaintext
encrypts to; walk runs a stream through them, its first level reading the
stream's symbols as they are.  A row is sliced when a message first
reaches it, so a fresh frame costs O(n) a level plus the rows its messages
use.

All interfaces speak 1-indexed symbols, matching the usual way these
tables are printed, and so does storage: one (n+1) x (n+1) numpy array
with a zero row 0 and column 0, so that entry [a, b] is a * b, in the
smallest unsigned integer type that holds the order (uint8 below 256,
else uint16).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DuplicateInColumn,
    DuplicateInRow,
    EntryOutOfRange,
    ForgedCiphertext,
    InvalidOrder,
    NotSquare,
    SizeMismatch,
    SymbolOutOfRange,
)

# Largest order of any table.  One number from a profile, frame, container
# or command line becomes n^2 memory: at 4096 a table and its inverse take
# 64 MB, and one level's chain rows in both directions, once its inputs
# reach every row, about 270 MB.  Symbols also fit the container's 16 bits.
MAX_ORDER = 4096


def table_dtype(order: int) -> type:
    """The storage type of an order-n table: the smallest that holds n."""
    return np.uint8 if order < 256 else np.uint16


class LatinSquare:
    """An immutable order-n multiplication table with entries in 1..n.

    Build instances with validate_latin_square(), base_square(), or
    apply_isotopy(); the raw constructor trusts its padded input.
    """

    def __init__(self, padded: np.ndarray):
        order = int(np.shape(padded)[0]) - 1
        padded = np.ascontiguousarray(padded, dtype=table_dtype(order))
        padded.setflags(write=False)
        self._padded = padded
        self.order = order

    @property
    def table(self) -> np.ndarray:
        """The n x n table, entries 1..n: a read-only view of the padded one."""
        return self._padded[1:, 1:]

    @cached_property
    def _inverse(self) -> "LatinSquare":
        # inv[a, a * b] = b for every row a >= 1 and b in 0..n; row 0 stays 0
        symbols = np.arange(self.order + 1)
        inv = np.zeros_like(self._padded)
        inv[symbols[1:, None], self._padded[1:]] = symbols
        return LatinSquare(inv)

    def __eq__(self, other):
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return self.order == other.order and np.array_equal(self._padded, other._padded)

    def __hash__(self):
        return hash((self.order, self._padded.tobytes()))

    def __repr__(self):
        return f"LatinSquare(order={self.order})"


@dataclass(frozen=True)
class Permutation:
    """A bijection on 1..n, stored as the image tuple (mapping[i-1] = image of i)."""

    mapping: tuple

    def __post_init__(self):
        n = len(self.mapping)
        if n < 1:
            raise InvalidOrder("permutation must have size >= 1")
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise SymbolOutOfRange("mapping is not a bijection on 1..n")

    @property
    def size(self) -> int:
        return len(self.mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def check_order(n: int, least: int = 1) -> None:
    """Raise InvalidOrder unless least <= n <= MAX_ORDER."""
    if n < least:
        raise InvalidOrder(f"order must be >= {least}, got {n}")
    if n > MAX_ORDER:
        raise InvalidOrder(f"order {n} exceeds maximum {MAX_ORDER}")


def base_square(n: int) -> LatinSquare:
    """The canonical cyclic square: entry (a, b) = ((a + b - 2) mod n) + 1.

    Row a is 1..n rotated left by a - 1, a window of 1..n written twice,
    so the padded table is filled in its storage type with no sum formed.
    """
    check_order(n)
    twice = np.tile(np.arange(1, n + 1, dtype=table_dtype(n)), 2)
    padded = np.zeros((n + 1, n + 1), dtype=twice.dtype)
    padded[1:, 1:] = sliding_window_view(twice, n)[:n]
    return LatinSquare(padded)


def validate_latin_square(table) -> LatinSquare:
    """Check that `table` is a Latin square and wrap it.

    Raises NotSquare, InvalidOrder, EntryOutOfRange (first offending cell),
    DuplicateInRow, or DuplicateInColumn (first offending line).  Rows are
    checked before columns.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise NotSquare(f"expected a non-empty square table, got shape {arr.shape}")
    n = arr.shape[0]
    check_order(n)
    if np.issubdtype(arr.dtype, np.floating):
        # a cell that is no integer in 1..n becomes 0, which the range check
        # below reports; masked first, as casting nan or inf would warn
        ok = (arr >= 1) & (arr <= n) & (np.floor(arr) == arr)
        arr = np.where(ok, arr, 0).astype(np.int64)
    elif not np.issubdtype(arr.dtype, np.integer):
        # each entry must be an integer in 1..n, so that the cast is exact
        for r, row in enumerate(arr.tolist()):
            for c, entry in enumerate(row):
                try:
                    ok = entry == int(entry) and 1 <= entry <= n
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise EntryOutOfRange(r + 1, c + 1)
        arr = arr.astype(np.int64)
    out = (arr < 1) | (arr > n)
    if out.any():
        r, c = np.argwhere(out)[0]
        raise EntryOutOfRange(int(r) + 1, int(c) + 1)
    expect = np.arange(1, n + 1)
    row_ok = (np.sort(arr, axis=1) == expect).all(axis=1)
    if not row_ok.all():
        raise DuplicateInRow(int(np.argmin(row_ok)) + 1)
    col_ok = (np.sort(arr, axis=0) == expect[:, None]).all(axis=0)
    if not col_ok.all():
        raise DuplicateInColumn(int(np.argmin(col_ok)) + 1)
    return LatinSquare(np.pad(arr, (1, 0)))


def _check_symbol(square: LatinSquare, sym: int, what: str) -> None:
    if not 1 <= sym <= square.order:
        raise SymbolOutOfRange(f"{what} {sym} outside 1..{square.order}")


def multiply(square: LatinSquare, a: int, b: int) -> int:
    """a * b: the table entry at row a, column b."""
    _check_symbol(square, a, "row symbol")
    _check_symbol(square, b, "column symbol")
    return int(square._padded[a, b])


def left_divide(square: LatinSquare, a: int, b: int) -> int:
    """a \\ b: the unique x with a * x = b, found by scanning row a."""
    _check_symbol(square, a, "row symbol")
    _check_symbol(square, b, "target symbol")
    return int(np.nonzero(square._padded[a] == b)[0][0])


def left_inverse(square: LatinSquare) -> LatinSquare:
    """The left-inverse parastrophe: entry (a, b) is a \\ b.

    The result is itself a Latin square, and applying left_inverse twice
    returns the original table.  It is built once and cached on the input
    square, where unchain reads it too.
    """
    return square._inverse


# --- chain loops -------------------------------------------------------------------

# Each pass walks two chained levels at once: symbol i of the second level
# needs only symbol i of the first, so one loop carries both levels' states.
# rows1[a] is the first level's row for state a, indexed by that level's
# input; its entry is the first level's new state, which is also the second
# level's input.  A level without a partner runs beside _identity_rows.

def chain_pass(rows1: list, a: int, rows2: list, b: int, symbols) -> list:
    """Two encrypt levels in one pass: out[i] = rows2[b][a], where a and b
    are each level's previous output, a updated first."""
    return [(b := rows2[b][(a := rows1[a][x])]) for x in symbols]


def unchain_pass(rows1: list, a: int, rows2: list, b: int, symbols) -> list:
    """Two decrypt levels in one pass: each row is looked up before its
    level's state moves on to the symbol it just read.  An index past a
    row's end raises IndexError, which decrypt relies on."""
    return [rows2[b][(b := rows1[a][(a := x)])] for x in symbols]


def _identity_rows(width: int) -> list:
    """The rows of a level that passes 0..width-1 through unchanged; they
    all share one list."""
    return [list(range(width))] * width


def chain(square: LatinSquare, leader: int, symbols) -> list:
    """Unchecked: out[1] = leader * in[1], out[i] = out[i-1] * in[i], over
    the padded table read in place, one memoryview per row."""
    rows = [memoryview(row) for row in square._padded]
    return chain_pass(rows, leader, _identity_rows(len(rows)), 0, symbols)


def unchain(square: LatinSquare, leader: int, symbols) -> list:
    """out[1] = leader \\ in[1], out[i] = in[i-1] \\ in[i], over the left
    inverse read as chain does.  A symbol above the order raises IndexError."""
    rows = [memoryview(row) for row in square._inverse._padded]
    return unchain_pass(rows, leader, _identity_rows(len(rows)), 0, symbols)


# --- chain rows of a frame ----------------------------------------------------------

# A frame's levels never need their tables.  Every indexed table is an
# isotope of Z_n: with the permutations alpha, beta and gamma as sequences of
# 1..n, entry (x, y) is gamma[(alpha[x-1] + beta[y-1] - 2) mod n].  Carry
# each level's state as the coordinate the next level reads, and a row is a
# window of one doubled length-2n list F: rows[state][c] = F[i + c], with
# the offset i set by the state's symbol.  So a level is F and n offsets,
# and no n x n table, inverse or tolist() is built.
#
# Rows are sliced on first use.  Every row starts as _UNSLICED, whose
# lookup raises the IndexError that the passes let through to walk;
# first_forged slices the rows it reaches one level at a time, and
# slice_rows every row, both through _slice.

# Decrypt's mark for a symbol y above the next level's order is _FORGED + y:
# an index past the end of any row, so that its next lookup raises
# IndexError, from which first_forged recovers y.
_FORGED = 1 << 62

_UNSLICED = ()


class FrameRows(NamedTuple):
    """One direction's chain rows for a frame's levels, in walk order.

    rows holds each level's rows, with an identity level after an odd count
    so that they pair up; starts maps each level's leader to its first
    state.  Level w's row for state a is windows[w][i:i + n] at
    i = offsets[w][a], n being half the window; until first used, rows[w][a]
    is _UNSLICED.  Level 0 reads a stream's symbols themselves: gather maps
    its row, once sliced, to the entries at the coordinates of symbols
    0..n, so that no pass maps the stream first.  inverse is set for
    decrypt rows, whose state is the symbol just read rather than the
    symbol just written.
    """

    gather: Callable
    rows: list
    starts: list
    windows: list
    offsets: list
    inverse: bool


def _paired(rows: list, width: int) -> list:
    """rows, with an identity level of the given width after an odd count."""
    return rows + [_identity_rows(width)] if len(rows) % 2 else rows


def chain_rows(isotopies: list) -> FrameRows:
    """The encrypt rows of levels 1..k, each given as (alpha, beta, gamma).

    Level j's state is E_j[s] = beta_{j+1}[s-1] - 1 for its output s, the
    column coordinate of level j+1; E_k is the identity, so the last level
    yields ciphertext symbols.  Then rows_j[E_j[s]] is F_j[alpha_j[s-1]-1:]
    cut to n_j entries, with F_j = [E_j[g] for g in gamma_j] twice over.
    Level 1's rows are gathered through beta_1's coordinates, so that
    plaintext symbols index them.
    """
    encoders = [[0] + [b - 1 for b in beta] for _, beta, _ in isotopies[1:]]
    encoders.append(list(range(len(isotopies[-1][0]) + 1)))
    windows, offsets = [], []
    for (alpha, _, gamma), code in zip(isotopies, encoders):
        windows.append([code[g] for g in gamma] * 2)
        level = [None] * len(code)         # unused states keep None
        for s, x in enumerate(alpha, 1):
            level[code[s]] = x - 1
        offsets.append(level)
    rows = [[_UNSLICED] * len(code) for code in encoders]
    gather = itemgetter(0, *[b - 1 for b in isotopies[0][1]])
    return FrameRows(gather, _paired(rows, len(encoders[-1])), encoders,
                     windows, offsets, False)


def unchain_rows(isotopies: list) -> FrameRows:
    """The decrypt rows of levels k..1, each given as (alpha, beta, gamma)
    for levels 1..k.

    Level j's symbols are carried as gamma_j's inverse gi_j, the table's Z_n
    coordinate.  Left division x \\ z is binv_j[(gi_j[z] - alpha_j[x-1] + 1)
    mod n_j], binv_j being beta_j's inverse on Z_n, so rows_j[gi_j[x]] is the
    window F_j[i:i + n_j] at i = (1 - alpha_j[x-1]) mod n_j of F_j, binv_j
    coded as level j-1's coordinates, twice over.  A symbol y above n_{j-1}
    is coded as _FORGED + y.  Level 1's F holds the plaintext symbols.
    Level k reads ciphertext symbols: its rows are gathered through gi_k,
    its state z has offset (1 - alpha_k[z-1]) mod n_k, and leader q starts
    at state q.
    """
    coords = []                 # gi_j: symbol -> coordinate, index 0 unused
    for _, _, gamma in isotopies:
        gi = [0] * (len(gamma) + 1)
        for i, g in enumerate(gamma):
            gi[g] = i
        coords.append(gi)
    windows, offsets = [], []
    last = len(isotopies) - 1
    for j in range(last, -1, -1):
        alpha, beta, gamma = isotopies[j]
        n = len(alpha)
        binv = [0] * n
        for y, b in enumerate(beta, 1):
            binv[b - 1] = y
        if j:
            below, top = coords[j - 1], len(isotopies[j - 1][2])
            binv = [below[y] if y <= top else _FORGED + y for y in binv]
        windows.append(binv * 2)
        if j < last:
            offsets.append([(1 - alpha[g - 1]) % n for g in gamma])
        else:                   # the state is the symbol; 0 is unused
            offsets.append([None] + [(1 - x) % n for x in alpha])
    rows = [[_UNSLICED] * len(level) for level in offsets]
    starts = [list(range(len(offsets[0])))] + coords[::-1][1:]
    return FrameRows(itemgetter(*coords[last]),
                     _paired(rows, len(isotopies[0][0]) + 1),
                     starts, windows, offsets, True)


def _slice(rows: FrameRows, w: int, a: int):
    """Slice, store and return level w's row for state a (walk order),
    level 0's gathered so that stream symbols index it."""
    window, i = rows.windows[w], rows.offsets[w][a]
    row = window[i:i + len(window) // 2]
    if not w:
        row = rows.gather(row)
    rows.rows[w][a] = row
    return row


def slice_rows(rows: FrameRows) -> int:
    """Slice every unsliced row of every level that a state can reach, and
    return how many were sliced."""
    count = 0
    for w, (level, offsets) in enumerate(zip(rows.rows, rows.offsets)):
        for a, i in enumerate(offsets):
            if i is not None and level[a] is _UNSLICED:
                _slice(rows, w, a)
                count += 1
    return count


def first_forged(rows: FrameRows, leaders, symbols):
    """Walk `symbols` through the rows one level at a time, slicing each
    unsliced row it meets, to the first symbol coded as above the next
    level's order.  Return it as (position, symbol, level, order), levels
    numbered 1..k from the plaintext side and order being that level's, or
    None if no level yields one."""
    k = len(rows.starts)
    for w, (level, start, leader) in enumerate(zip(rows.rows, rows.starts, leaders)):
        a, out = start[leader], []
        for position, x in enumerate(symbols, 1):
            row = level[a]
            if row is _UNSLICED:
                row = _slice(rows, w, a)
            y = row[x]
            if y >= _FORGED:
                return (position, y - _FORGED, k - 1 - w,
                        len(rows.windows[w + 1]) // 2)
            out.append(y)
            a = x if rows.inverse else y
        symbols = out
    return None


def _passes(loop, rows: FrameRows, leaders, symbols) -> list:
    """Run `symbols` through a frame's rows in walk order, two levels per
    pass of `loop` (chain_pass or unchain_pass), each level starting from
    its leader in walk order."""
    # an identity level after an odd count starts at 0
    states = [*map(list.__getitem__, rows.starts, leaders), 0]
    levels = rows.rows
    for j in range(0, len(levels), 2):
        symbols = loop(levels[j], states[j], levels[j + 1], states[j + 1], symbols)
    return symbols


def walk(rows: FrameRows, leaders, symbols) -> list:
    """`symbols` run through a frame's rows, each level starting from its
    leader in walk order: chain_pass for encrypt rows, unchain_pass for
    decrypt rows.  An unsliced row's IndexError slices the rows that
    `symbols` reach and the passes run again: every row, when `symbols` is
    at least as long as every level's row count, else the rows first_forged
    meets.  An IndexError with every reached row sliced is a forged
    ciphertext's: first_forged names it, and walk raises ForgedCiphertext."""
    loop = unchain_pass if rows.inverse else chain_pass
    try:
        return _passes(loop, rows, leaders, symbols)
    except IndexError:
        pass
    if len(symbols) >= max(map(len, rows.rows)) and slice_rows(rows):
        try:
            return _passes(loop, rows, leaders, symbols)
        except IndexError:
            pass
    forged = first_forged(rows, leaders, symbols)
    if forged:
        raise ForgedCiphertext(*forged)
    return _passes(loop, rows, leaders, symbols)


def apply_isotopy(square: LatinSquare, alpha: Permutation, beta: Permutation,
                  gamma: Permutation) -> LatinSquare:
    """Permute rows (alpha), columns (beta), and symbols (gamma).

    Convention: result(x, y) = gamma(table(alpha(x), beta(y))).  Any isotope
    of a Latin square is again a Latin square.
    """
    n = square.order
    if not (alpha.size == beta.size == gamma.size == n):
        raise SizeMismatch(
            f"permutation sizes {alpha.size}/{beta.size}/{gamma.size} "
            f"do not match order {n}")
    # 0 -> 0 in each padded permutation keeps row 0 and column 0 zero
    a = np.array((0,) + alpha.mapping, dtype=np.intp)
    b = np.array((0,) + beta.mapping, dtype=np.intp)
    g = np.array((0,) + gamma.mapping, dtype=square._padded.dtype)
    padded = square._padded[a[:, None], b]
    # gamma in place, one row at a time, so that no second table is held
    for row in padded:
        np.take(g, row, out=row, mode="clip")
    return LatinSquare(padded)


def format_table(square: LatinSquare) -> str:
    """Dump format: first line ``order n``, then n rows of n decimal symbols."""
    lines = [f"order {square.order}"]
    # row by row: one whole-table tolist() would hold n^2 Python ints at once
    lines.extend(" ".join(map(str, row.tolist())) for row in square.table)
    return "\n".join(lines) + "\n"
