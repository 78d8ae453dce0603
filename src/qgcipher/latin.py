"""Latin-square algebra over the symbols 1..n.

A quasigroup's multiplication table is a Latin square: every row and every
column is a permutation of 1..n.  This module checks orders, validates
tables, multiplies, left-divides, materializes the left-inverse parastrophe
used for decryption, applies isotopies, and runs one cipher level's chain
loop each way: it is the only module that reads a table's storage.

All interfaces speak 1-indexed symbols, matching the usual way these
tables are printed, and so does storage: one (n+1) x (n+1) numpy array
with a zero row 0 and column 0, so that entry [a, b] is a * b, in the
smallest unsigned integer type that holds the order (uint8 below 256,
else uint16).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateInColumn,
    DuplicateInRow,
    EntryOutOfRange,
    InvalidOrder,
    NotSquare,
    SizeMismatch,
    SymbolOutOfRange,
)

# Largest order of any table.  One number from a profile, frame, container
# or command line becomes n^2 memory: at 4096 a table and its inverse, with
# their padded chain rows, take about 270 MB.  Symbols also fit the
# container's 16 bits.
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
    def _rows(self) -> list:
        """The padded table as nested lists, so that _rows[a][b] == a * b.
        Indexing a list with an int is the interpreter's fastest lookup,
        which is what the per-symbol loops of chain and unchain need."""
        n = self.order
        # Up to 256, tolist() already shares CPython's cached small ints, and
        # it builds about twice as fast as the gather below; cold builds set
        # simulate's send tail.  Above 256 it would make an int object per
        # entry, so the rows gather one shared object per symbol instead
        # (4x smaller at order 1024), a row at a time to bound the transient.
        if n <= 256:
            return self._padded.tolist()
        symbols = np.array(range(n + 1), dtype=object)
        return [symbols[row].tolist() for row in self._padded]

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


def chain(square: LatinSquare, leader: int, symbols) -> list:
    """Unchecked: out[1] = leader * in[1], out[i] = out[i-1] * in[i]."""
    rows = square._rows
    out = []
    prev = leader
    for sym in symbols:
        prev = rows[prev][sym]
        out.append(prev)
    return out


def unchain(square: LatinSquare, leader: int, symbols) -> list:
    """out[1] = leader \\ in[1], out[i] = in[i-1] \\ in[i], over the left
    inverse's chain rows, each row looked up before `prev` moves on.  A
    symbol above the order raises IndexError, which decrypt relies on."""
    rows = square._inverse._rows
    prev = leader
    return [rows[prev][(prev := sym)] for sym in symbols]


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
    return LatinSquare(g[square._padded[a[:, None], b]])


def format_table(square: LatinSquare) -> str:
    """Dump format: first line ``order n``, then n rows of n decimal symbols."""
    lines = [f"order {square.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in square.table.tolist())
    return "\n".join(lines) + "\n"
