import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgcipher as qg
from qgcipher import latin
from qgcipher.errors import (
    DuplicateInColumn,
    DuplicateInRow,
    EntryOutOfRange,
    InvalidOrder,
    NotSquare,
    SizeMismatch,
    SymbolOutOfRange,
)

from conftest import ORDER4_TABLE


# --- validation ----------------------------------------------------------------

def test_order4_table_is_valid(g4):
    assert g4.order == 4
    assert g4.table.tolist() == ORDER4_TABLE


def test_identity_table_is_valid():
    assert qg.validate_latin_square([[1]]).order == 1


def test_duplicate_in_column():
    with pytest.raises(DuplicateInColumn) as err:
        qg.validate_latin_square([[1, 2], [1, 2]])
    assert err.value.col == 1


def test_duplicate_in_row():
    with pytest.raises(DuplicateInRow) as err:
        qg.validate_latin_square([[1, 1], [2, 2]])
    assert err.value.row == 1


def test_not_square():
    with pytest.raises(NotSquare):
        qg.validate_latin_square([[1, 2], [2, 1], [1, 2]])
    with pytest.raises(NotSquare):
        qg.validate_latin_square([1, 2, 3])


def test_entry_out_of_range():
    with pytest.raises(EntryOutOfRange) as err:
        qg.validate_latin_square([[1, 2], [2, 3]])
    assert (err.value.row, err.value.col) == (2, 2)
    with pytest.raises(EntryOutOfRange):
        qg.validate_latin_square([[0, 1], [1, 0]])


@pytest.mark.parametrize("table, cell", [
    ([[2 ** 70]], (1, 1)),
    ([[1, 2], [2, 2 ** 64]], (2, 2)),
    ([[float("nan"), 1], [1, 2]], (1, 1)),
    ([[1, 2], [2, float("inf")]], (2, 2)),
    ([[1, 1.5], [2, 1]], (1, 2)),
    ([["x", 2], [2, 1]], (1, 1)),
    ([[None, 2], [2, 1]], (1, 1)),
    ([[1, 2], [-0.0, 1]], (2, 1)),
    ([[1, 5.0], [2, 1]], (1, 2)),
    ([[1, 2], [2, 1e300]], (2, 2)),
    ([[1, 2], [float("-inf"), 1]], (2, 1)),
], ids=["2**70", "2**64", "nan", "inf", "1.5", "str", "None", "-0.0", "5.0",
        "1e300", "-inf"])
def test_non_integer_entries_are_out_of_range(table, cell):
    # an EntryOutOfRange at the first such cell: no OverflowError, and no
    # numpy cast warning, which pyproject.toml makes a test error
    with pytest.raises(EntryOutOfRange) as err:
        qg.validate_latin_square(table)
    assert (err.value.row, err.value.col) == cell


def test_integral_float_entries_are_accepted():
    square = qg.validate_latin_square([[1.0, 2.0], [2.0, 1.0]])
    assert square.table.tolist() == [[1, 2], [2, 1]]


def test_object_dtype_table_is_accepted():
    square = qg.validate_latin_square(np.array(ORDER4_TABLE, dtype=object))
    assert square.table.tolist() == ORDER4_TABLE
    assert square == qg.validate_latin_square(np.array(ORDER4_TABLE))


def test_float_table_validation_peaks_under_three_table_sizes():
    # A cell-by-cell check through Python lists peaks at about 4x the table.
    table = qg.base_square(1024).table.astype(float)
    tracemalloc.start()
    try:
        square = qg.validate_latin_square(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == qg.base_square(1024)
    assert peak <= 3 * table.nbytes
    table[0, [0, 1]] = table[0, [1, 0]]
    with pytest.raises(DuplicateInColumn):
        qg.validate_latin_square(table)


@pytest.mark.parametrize("n, least, message", [
    (0, 1, "order must be >= 1, got 0"),
    (1, 2, "order must be >= 2, got 1"),
    (qg.MAX_ORDER + 1, 1, f"order {qg.MAX_ORDER + 1} exceeds maximum {qg.MAX_ORDER}"),
])
def test_check_order_names_the_bound(n, least, message):
    with pytest.raises(InvalidOrder) as err:
        latin.check_order(n, least)
    assert str(err.value) == message
    latin.check_order(least, least)
    latin.check_order(qg.MAX_ORDER, least)


@pytest.mark.parametrize("build", [
    lambda: qg.validate_latin_square(np.zeros((qg.MAX_ORDER + 1,) * 2, np.uint8)),
    lambda: qg.base_square(qg.MAX_ORDER + 1),
], ids=["validate_latin_square", "base_square"])
def test_tables_above_the_order_cap_are_refused(build):
    with pytest.raises(InvalidOrder, match=f"exceeds maximum {qg.MAX_ORDER}$"):
        build()


# --- multiplication and division --------------------------------------------------

def test_multiply_examples(g4):
    assert qg.multiply(g4, 2, 3) == 3
    assert qg.multiply(g4, 1, 1) == 2


def test_multiply_rejects_out_of_range(g4):
    with pytest.raises(SymbolOutOfRange):
        qg.multiply(g4, 5, 1)
    with pytest.raises(SymbolOutOfRange):
        qg.multiply(g4, 1, 0)


def _scan_divide(table, a, b):
    # brute-force row scan, the defining computation
    for x, value in enumerate(table[a - 1], 1):
        if value == b:
            return x
    raise AssertionError("not a Latin square")


def test_left_divide_examples(g4):
    assert qg.left_divide(g4, 2, 3) == _scan_divide(ORDER4_TABLE, 2, 3) == 3
    assert qg.left_divide(g4, 1, 2) == _scan_divide(ORDER4_TABLE, 1, 2) == 1


def test_left_divide_rejects_out_of_range(g4):
    with pytest.raises(SymbolOutOfRange):
        qg.left_divide(g4, 0, 1)


def test_division_laws_exhaustive(g4):
    for a in range(1, 5):
        for b in range(1, 5):
            assert qg.left_divide(g4, a, qg.multiply(g4, a, b)) == b
            assert qg.multiply(g4, a, qg.left_divide(g4, a, b)) == b
            assert qg.left_divide(g4, a, b) == _scan_divide(ORDER4_TABLE, a, b)


def test_operations_total_and_match_scan_oracle():
    # totality on 1..n x 1..n against the row-scan oracle, on a
    # generated square large enough to be non-trivial
    square = qg.get_quasigroup(qg.default_profile(), 9, 5, 123)
    table = square.table.tolist()
    for a in range(1, 10):
        for b in range(1, 10):
            assert qg.multiply(square, a, b) == table[a - 1][b - 1]
            assert qg.left_divide(square, a, b) == _scan_divide(table, a, b)


# --- parastrophe ---------------------------------------------------------------------

def test_left_inverse_rows(g4):
    inv = qg.left_inverse(g4)
    assert inv.table.tolist()[0] == [3, 1, 2, 4]
    assert inv.table.tolist()[3] == [1, 2, 4, 3]


def test_left_inverse_order_one():
    one = qg.validate_latin_square([[1]])
    assert qg.left_inverse(one).table.tolist() == [[1]]


def test_left_inverse_is_valid_and_involutive(g4):
    inv = qg.left_inverse(g4)
    qg.validate_latin_square(inv.table)
    assert qg.left_inverse(inv) == g4


def test_equal_squares_hash_equal(g4):
    assert hash(g4) == hash(qg.left_inverse(qg.left_inverse(g4)))
    assert repr(g4) == "LatinSquare(order=4)"


# --- isotopy ----------------------------------------------------------------------------

def test_identity_isotopy(g4):
    ident = qg.Permutation.identity(4)
    assert qg.apply_isotopy(g4, ident, ident, ident) == g4


def test_row_swap_isotopy():
    cyclic = qg.base_square(3)
    alpha = qg.Permutation((2, 1, 3))
    ident = qg.Permutation.identity(3)
    swapped = qg.apply_isotopy(cyclic, alpha, ident, ident)
    assert swapped.table.tolist()[0] == cyclic.table.tolist()[1]
    assert swapped.table.tolist()[1] == cyclic.table.tolist()[0]
    assert swapped.table.tolist()[2] == cyclic.table.tolist()[2]


def test_isotopy_size_mismatch(g4):
    with pytest.raises(SizeMismatch):
        qg.apply_isotopy(g4, qg.Permutation.identity(3),
                         qg.Permutation.identity(4), qg.Permutation.identity(4))


@given(n=st.integers(min_value=1, max_value=64),
       seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
                       st.integers(0, 2**64 - 1)))
@settings(max_examples=40, deadline=None)
def test_isotopy_preserves_latin_property(n, seeds):
    square = qg.base_square(n)
    perms = [qg.permutation_from_seed(s, n) for s in seeds]
    result = qg.apply_isotopy(square, *perms)
    qg.validate_latin_square(result.table)


def test_permutation_must_be_bijection():
    with pytest.raises(SymbolOutOfRange):
        qg.Permutation((1, 1, 3))
    with pytest.raises(SymbolOutOfRange):
        qg.Permutation((0, 1, 2))


def test_permutation_call_returns_the_image():
    perm = qg.Permutation((2, 3, 1))
    assert [perm(x) for x in (1, 2, 3)] == [2, 3, 1]


def test_empty_permutation_is_an_invalid_order():
    with pytest.raises(InvalidOrder, match="size >= 1"):
        qg.Permutation(())


# --- dump format -----------------------------------------------------------------------

def test_format_table(g4):
    text = qg.format_table(g4)
    lines = text.splitlines()
    assert lines[0] == "order 4"
    assert len(lines) == 5
    assert lines[1] == "2 3 1 4"
    parsed = [[int(v) for v in line.split()] for line in lines[1:]]
    assert parsed == ORDER4_TABLE


def test_table_is_read_only(g4):
    with pytest.raises(ValueError):
        g4.table[0, 0] = 9
    assert np.array_equal(g4.table, np.array(ORDER4_TABLE))


# --- storage ---------------------------------------------------------------------------

@pytest.mark.parametrize("order, dtype", [
    (2, np.uint8), (3, np.uint8), (254, np.uint8), (255, np.uint8),
    (256, np.uint16), (257, np.uint16),
])
def test_table_dtype_is_the_smallest_that_fits(order, dtype):
    square = qg.get_quasigroup(qg.default_profile(), order, 1, 5)
    assert square.table.dtype == dtype
    assert qg.left_inverse(square).table.dtype == dtype
    assert int(square.table.max()) == order


@pytest.mark.parametrize("order", [255, 256, 257, 1024])
def test_chain_rows_share_one_int_per_symbol(order):
    # Above 256, CPython's tolist() makes a new int per entry; the padded
    # chain rows must not, or they take about 4x the memory.
    square = qg.get_quasigroup(qg.default_profile(), order, 1, 5)
    rows = square._rows
    assert rows[0] == [0] * (order + 1)
    assert [row[0] for row in rows] == [0] * (order + 1)
    assert rows[1][1:] == square.table.tolist()[0]
    assert len({id(v) for row in rows for v in row}) == order + 1


def test_chain_rows_above_256_peak_near_what_they_keep():
    # Gathering the whole (n+1)^2 object array first would peak at twice
    # the rows' own size.
    square = qg.base_square(1024)
    tracemalloc.start()
    try:
        rows = square._rows
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1025
    assert peak <= 1.25 * kept


def test_format_table_bytes_at_order_256_are_pinned():
    # Order 256 is the first stored as uint16; qg-dump output must not move.
    square = qg.get_quasigroup(qg.default_profile(), 256, 1, 0)
    digests = [hashlib.sha256(qg.format_table(s).encode()).hexdigest()
               for s in (square, qg.left_inverse(square))]
    assert digests == [
        "8c0a274be29cffee19087e0532f117ac63f310d9f7e1b5bd3d597659c3a89b3a",
        "22475139c1a5afe475d6e3636d67e3ee51780060123f2e74e6f8bec9b134000f",
    ]


# --- structure -------------------------------------------------------------------------

def test_only_latin_reads_table_storage():
    # Row and inverse layouts can change in latin.py alone.
    private = {"_rows", "_inverse", "_padded"}
    readers = {}
    for path in Path(latin.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.setdefault(path.name, set()).add(node.attr)
            if isinstance(node, ast.ImportFrom) and path.name == "codec.py":
                assert "left_inverse" not in {a.name for a in node.names}
    assert set(readers) == {"latin.py"}


def _names(tree):
    """Every name, attribute and imported name under `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_keying_judges_frames():
    # Frame and key rules can change in keying.py alone.
    raisers, expiry_sums = set(), set()
    for path in Path(latin.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "KeyMismatch" in _names(node):
                raisers.add(path.name)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and {"issued_at", "nonce"} <= _names(node)):
                expiry_sums.add(path.name)
        if path.name == "tasim.py":
            assert "validate_frame" not in _names(tree)
    assert raisers == {"keying.py"}
    assert expiry_sums == {"keying.py"}
