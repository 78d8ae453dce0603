"""Latin-square algebra over the symbols 1..n.

A quasigroup's multiplication table is a Latin square: every row and every
column is a permutation of 1..n.  This module validates tables, performs
row/column lookups (multiplication), solves a * x = b by left division,
materializes the left-inverse parastrophe used for decryption, and applies
isotopies (row/column/symbol permutations).

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
        which is what the codec's per-symbol chain loops need."""
        n = self.order
        # Up to 256, tolist() already shares CPython's cached small ints, and
        # it builds about twice as fast as the gather below; cold builds set
        # simulate's send tail.  Above 256 it would make an int object per
        # entry, so the rows gather one shared object per symbol instead
        # (4x smaller at order 1024).
        if n <= 256:
            return self._padded.tolist()
        return np.array(range(n + 1), dtype=object)[self._padded].tolist()

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
    if n > MAX_ORDER:
        raise InvalidOrder(f"order {n} exceeds maximum {MAX_ORDER}")
    if not np.issubdtype(arr.dtype, np.integer):
        try:
            cast = arr.astype(np.int64, casting="unsafe")
        except (ValueError, TypeError):
            for r in range(n):
                for c in range(n):
                    try:
                        int(arr[r, c])
                    except (ValueError, TypeError):
                        raise EntryOutOfRange(r + 1, c + 1) from None
            raise
        bad = ~(cast == arr)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise EntryOutOfRange(int(r) + 1, int(c) + 1)
        arr = cast
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
    returns the original table.  The table is materialized once and cached
    on the input square, so repeated decryption against the same square
    pays for the construction only once.
    """
    return square._inverse


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
