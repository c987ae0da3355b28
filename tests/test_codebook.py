"""Codebook construction, counting, and bit-mapping tests."""

import dataclasses
import gc
import inspect
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvlc import analysis, codebook
from pmvlc.analysis import SimConfig
from pmvlc.channel import fixture_h02
from pmvlc.codebook import Codebook, combine_codebooks, enumerate_weight_w, permutation_table
from pmvlc.detectors import signal_stack
from pmvlc.scenarios import CODEBOOKS, named_codebook
from pmvlc.txcodec import PamConfig, pam_intensity


def hamming(a, b):
    # positions where two codewords disagree
    return sum(x != y for x, y in zip(a, b, strict=True))


def derangement_count(L):
    # codewords at distance L from one codeword: L! * sum_k (-1)^k / k!,
    # in exact integers
    return sum((-1) ** k * (math.factorial(L) // math.factorial(k)) for k in range(L + 1))


def cyclic_shifts(s):
    # the L cyclic shifts of a codeword: the rows of a Latin square, so any
    # two disagree in every position
    return [s[i:] + s[:i] for i in range(len(s))]


def book_of(*entries):
    # a Codebook from entries given as tuples of 1-based codewords, in the
    # given order and decomposition: no canonicalising, no checks but the
    # constructor's own
    L = len(entries[0][0])
    row = permutation_table(L)[1].index
    w = max(map(len, entries))
    return Codebook(L, [[row(p) for p in e] + [-1] * (w - len(e)) for e in entries])


def component_symbols(book):
    # each entry's components as 1-based symbol tuples, read from the table
    table = permutation_table(book.L)[1]
    return [tuple(table[j] for j in row if j >= 0) for row in book.components.tolist()]


def brute_force_distance_L_count(L):
    # Independent oracle: scan all permutations against the identity.
    ident = tuple(range(1, L + 1))
    return sum(
        all(a != b for a, b in zip(p, ident)) for p in permutations(ident)
    )


def brute_force_regular_matrix_count(L, w):
    # Independent oracle: every 0/1 matrix with all row and column sums equal
    # to w splits into w disjoint permutation matrices, and disjoint
    # permutations differ in every position, so this count must equal the
    # codebook size without touching the pairing construction at all.
    count = 0
    row_supports = list(combinations(range(L), w))
    for rows in product(row_supports, repeat=L):
        col_sums = [0] * L
        for support in rows:
            for c in support:
                col_sums[c] += 1
        if all(s == w for s in col_sums):
            count += 1
    return count


def scan_canonical_components(matrix):
    # Independent oracle for the canonical decomposition: peel the first
    # permutation, in itertools order, that fits inside what is left of the
    # support.
    L = matrix.shape[0]
    remaining = matrix.astype(bool).tolist()
    comps = []
    while any(any(row) for row in remaining):
        p = next(p for p in permutations(range(L))
                 if all(remaining[r][c] for r, c in enumerate(p)))
        comps.append(tuple(c + 1 for c in p))
        for r, c in enumerate(p):
            remaining[r][c] = False
    return tuple(comps)


def brute_force_enumeration(L, w):
    # Independent oracle for the enumeration kernel: every ascending w-set of
    # itertools permutations that pairwise differ in every position, in
    # itertools.combinations order, keeping the first set per cell mask.
    perms = list(permutations(range(1, L + 1)))
    first = {}
    for combo in combinations(perms, w):
        if all(all(x != y for x, y in zip(a, b)) for a, b in combinations(combo, 2)):
            mask = sum(1 << (r * L + c - 1) for p in combo for r, c in enumerate(p))
            first.setdefault(mask, combo)
    return list(first), list(first.values())


def listing(book, sep, head=()):
    # the whole entry listing, its pieces joined as the CLI report joins them
    return "".join(book.entry_chunks(sep, head))


def entry_lines_oracle(book, sep):
    # Independent oracle for the entry listing: each entry's components, as digit
    # strings, joined by sep, one line per entry, formatted per entry in Python
    return "".join(sep.join("".join(map(str, p)) for p in comps) + "\n"
                   for comps in component_symbols(book))


def book_keys(book):
    # Independent oracle for the cell masks: bit r*L + c - 1 for symbol c in
    # row r of every component, read from the table
    return [sum(1 << (r * book.L + c - 1) for p in comps for r, c in enumerate(p))
            for comps in component_symbols(book)]


def cell_count_oracle(book):
    # Independent oracle for the matrices: cell (r, c) counts the components
    # whose row-r symbol is c + 1, read straight from the decompositions.
    symbols = np.array(component_symbols(book))
    return (symbols[..., None] == np.arange(1, book.L + 1)).sum(axis=1)


class TestCodeword:
    def test_matrix_rows(self):
        cb = book_of(((2, 3, 1, 4),))
        assert cb.weight_array.tolist() == [1]
        expected = np.array(
            [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8
        )
        assert np.array_equal(cb.matrix_stack[0], expected)


class TestHammingDistance:
    """Two codewords sum to a weight-2 entry exactly when they are at
    Hamming distance L."""

    def test_zero_on_equal(self):
        assert hamming((1, 2, 3, 4), (1, 2, 3, 4)) == 0
        # no enumerated entry pairs codewords that share a position
        assert all(hamming(a, b) == 4 for a, b in component_symbols(enumerate_weight_w(4, 2)))

    def test_full_distance_pair(self):
        assert hamming((2, 3, 1, 4), (3, 1, 4, 2)) == 4
        assert book_of(((2, 3, 1, 4), (3, 1, 4, 2))).weight_array.tolist() == [2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming((1, 2), (1, 2, 3))


class TestDistanceLCount:
    """The enumerated weight-2 book pairs the identity, the smallest
    codeword and so the first canonical component, with every codeword at
    distance L from it."""

    @staticmethod
    def identity_partners(L):
        return len(enumerate_weight_w(L, 2).slot_table[2][0][tuple(range(1, L + 1))])

    def test_known_values(self):
        assert [derangement_count(L) for L in (2, 3, 4)] == [1, 2, 9]
        assert [self.identity_partners(L) for L in (3, 4)] == [2, 9]

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_force(self, L):
        assert derangement_count(L) == brute_force_distance_L_count(L)
        if 3 <= L <= 6:  # weight 2 needs L >= 3; enumeration stops at 6
            assert self.identity_partners(L) == derangement_count(L)

    def test_rejects_tiny_L(self):
        with pytest.raises(ValueError, match="L must be in 2..6"):
            enumerate_weight_w(1, 1)


class TestCyclicLatin:
    def test_shift_example(self):
        shifts = cyclic_shifts((2, 3, 1, 4))
        assert shifts[1] == (3, 1, 4, 2)
        assert len(shifts) == 4
        # any L - 1 shifts sum to the complement of the last one
        cb = book_of(tuple(shifts[1:]))
        np.testing.assert_array_equal(cb.matrix_stack[0], 1 - _perm(*shifts[0]))

    def test_minimal_length(self):
        assert cyclic_shifts((1, 2)) == [(1, 2), (2, 1)]
        # both shifts light every cell: weight L, every LED always on
        with pytest.raises(ValueError, match="w must be in 1..1"):
            enumerate_weight_w(2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(1, 6))))
    def test_pairwise_distance_property(self, perm):
        shifts = cyclic_shifts(tuple(perm))
        for a, b in combinations(shifts, 2):
            assert hamming(a, b) == len(perm)
        cb = book_of(tuple(shifts[:4]))
        np.testing.assert_array_equal(cb.matrix_stack[0], 1 - _perm(*shifts[4]))


class TestCodewordMatrix:
    """Entry matrices: keyed by their cell bitmask, which the constructor
    derives, and, when enumerated, stored under the canonical
    decomposition."""

    def test_paired_sum_matches_displayed_block(self):
        cb = book_of(((2, 3, 1, 4), (3, 1, 4, 2)))
        assert cb.weight_array.tolist() == [2]
        assert tuple(cb.matrix_stack[0, 0]) == (0, 1, 1, 0)
        assert np.array_equal(cb.matrix_stack[0], _perm(2, 3, 1, 4) + _perm(3, 1, 4, 2))

    def test_decomposition_is_lexicographically_smallest(self):
        # (1234)+(2143) and (1243)+(2134) sum to the same matrix; the
        # enumerated entry must hold the smaller pair.
        book = enumerate_weight_w(4, 2)
        key = book_keys(book_of(((1, 2, 4, 3), (2, 1, 3, 4))))[0]
        i = book_keys(book).index(key)
        assert listing(book.subset([i]), " ") == "1234 2143\n"

    def test_entries_are_read_only(self):
        cb = book_of(((2, 1, 3),))
        assert cb.components.dtype == np.intp
        for a in (cb.components, cb.matrix_stack, cb.weight_array):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            cb.matrix_stack[0, 0, 0] = 1

    def test_equality_is_on_entries(self):
        # a hand-built entry and the enumerated entry with its cells share a key
        assert book_keys(book_of(((1, 2, 3, 4),)))[0] == book_keys(enumerate_weight_w(4, 1))[0]

    def test_two_decompositions_compare_and_hash_equal(self):
        # (1234)+(2143) and (1243)+(2134) are one matrix written under two
        # decompositions: the key follows the cells alone
        a, b = book_of(((1, 2, 3, 4), (2, 1, 4, 3))), book_of(((1, 2, 4, 3), (2, 1, 3, 4)))
        assert book_keys(a) == book_keys(b)
        np.testing.assert_array_equal(a.matrix_stack, b.matrix_stack)
        with pytest.raises(ValueError, match="duplicate matrix in codebook"):
            book_of(((1, 2, 3, 4), (2, 1, 4, 3)), ((1, 2, 4, 3), (2, 1, 3, 4)))
        assert book_keys(book_of(((1, 2, 3, 4), (2, 3, 4, 1)))) != book_keys(a)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_duplicate_check_reads_every_cell(self, L):
        # two entries differing only in the last two rows, the mask's top bits
        ident = tuple(range(1, L + 1))
        entries = [(ident,), (ident[:-2] + ident[:-3:-1],)]
        book = book_of(*entries)
        first, second = book_keys(book)
        assert (first ^ second).bit_length() == L * L
        for repeat in entries:
            with pytest.raises(ValueError, match="duplicate matrix in codebook"):
                book_of(*entries, repeat)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_duplicate_check_reads_the_lowest_cell(self, L):
        # two entries differing only in the first two rows, the mask's low bits
        ident = tuple(range(1, L + 1))
        entries = [(ident,), (ident[1::-1] + ident[2:],)]
        first, second = book_keys(book_of(*entries))
        assert (first ^ second) & -(first ^ second) == 1
        for repeat in entries:
            with pytest.raises(ValueError, match="duplicate matrix in codebook"):
                book_of(*entries, repeat)

    def test_key_is_the_cell_bitmask(self):
        # bit r*L + c - 1 is set for symbol c in row r; (2, 3, 1) is the
        # fourth L = 3 permutation in lexicographic order
        book = enumerate_weight_w(3, 1).subset([3])
        assert component_symbols(book) == [((2, 3, 1),)]
        assert book_keys(book) == [(1 << 1) | (1 << 5) | (1 << 6)]
        np.testing.assert_array_equal(book.matrix_stack[0], _perm(2, 3, 1))

    @pytest.mark.parametrize("L,ws", [(3, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4)), (6, (1, 2))])
    def test_entries_and_matrix_stack_match_cell_oracle(self, L, ws):
        for w in ws:
            book = enumerate_weight_w(L, w)
            oracle = cell_count_oracle(book)
            assert oracle.max() == 1  # disjoint components
            np.testing.assert_array_equal(book.matrix_stack, oracle)


class TestConstructor:
    """Codebook(L, components, label) takes rows of permutation_table(L) and
    derives each entry's cell mask; it rejects any entry that is not a sum
    of disjoint permutation matrices."""

    def test_rejects_components_that_share_a_cell(self):
        # (1234) + (1243) would be a weight-2 entry with six ones, so its
        # slots would send powers [0.5, 0.5, 1, 1], not unit power each
        with pytest.raises(ValueError, match="components of an entry share a cell"):
            book_of(((1, 2, 3, 4), (1, 2, 4, 3)))

    @pytest.mark.parametrize("row", [-2, 24, 99])
    def test_rejects_a_row_outside_the_table(self, row):
        # row -2 would otherwise count as no component, an entry of weight 0
        with pytest.raises(ValueError, match=rf"^component row {row} outside 0\.\.23$"):
            Codebook(4, [[5], [row]])

    @pytest.mark.parametrize("components", [[[0], [-1]], [[-1, 0]], [[0, -1], [-1, 9]]])
    def test_rejects_an_entry_without_a_leading_component(self, components):
        with pytest.raises(ValueError, match="components must come first, then -1 past its weight"):
            Codebook(4, components)

    @pytest.mark.parametrize("L", [1, 7])
    def test_rejects_a_length_outside_the_table_range(self, L):
        # books index permutation_table(L), which stops at ENUMERATION_MAX_L
        with pytest.raises(ValueError, match="L must be in 2..6"):
            Codebook(L, [[0]])

    @pytest.mark.parametrize("components", [[[0.7]], [["3"]], [[True], [False]], [[5, 2.0]]],
                             ids=["float", "str", "bool", "mixed"])
    def test_rejects_components_that_are_not_integers(self, components):
        # each would otherwise be truncated to a row: 0.7 to row 0, "3" to row 3
        with pytest.raises(ValueError, match="^component row must be an integer"):
            Codebook(4, components)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_takes_components_of_any_integer_type(self, dtype):
        assert Codebook(4, np.array([[3], [1]], dtype=dtype)).components.tolist() == [[3], [1]]

    def test_checks_unsigned_rows_before_they_wrap(self):
        # 2**64 - 1 would wrap to -1 as intp and read as no component
        with pytest.raises(ValueError, match=r"^component row 18446744073709551615 outside 0\.\.23$"):
            Codebook(4, np.array([[3, 2**64 - 1]], dtype=np.uint64))

    def test_takes_no_key_to_disagree_with_the_components(self):
        # the cells come from the rows alone: a book holds nothing else
        assert list(inspect.signature(Codebook).parameters) == ["L", "components", "label"]
        book = combine_codebooks([enumerate_weight_w(5, w).subset(range(0, 40, 3)) for w in (1, 2, 3, 4)])
        np.testing.assert_array_equal(book.matrix_stack,
                                      [sum(_perm(*p) for p in comps) for comps in component_symbols(book)])


def _perm(*symbols):
    L = len(symbols)
    m = np.zeros((L, L), dtype=np.uint8)
    m[np.arange(L), np.asarray(symbols) - 1] = 1
    return m


class TestEnumeration:
    def test_weight_counts_L4(self):
        assert enumerate_weight_w(4, 1).size == 24
        assert enumerate_weight_w(4, 2).size == 90
        assert enumerate_weight_w(4, 3).size == 24

    @pytest.mark.parametrize("L, w", [pytest.param(4, w, id=str(w)) for w in (1, 2, 3)]
                             + [pytest.param(5, w, id=f"L5-{w}") for w in (1, 2, 3, 4)])
    def test_counts_match_regular_matrix_oracle(self, L, w):
        assert enumerate_weight_w(L, w).size == brute_force_regular_matrix_count(L, w)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_entries_store_canonical_decomposition_in_order(self, L):
        for w in range(1, L):
            cb = enumerate_weight_w(L, w)
            comps = component_symbols(cb)
            assert [scan_canonical_components(m) for m in cb.matrix_stack] == comps
            assert all(a < b for a, b in zip(comps, comps[1:]))

    def test_row_and_column_sums(self):
        cb = enumerate_weight_w(4, 2)
        assert (cb.matrix_stack.sum(axis=1) == 2).all()
        assert (cb.matrix_stack.sum(axis=2) == 2).all()

    def test_components_pairwise_distance(self):
        cb = enumerate_weight_w(4, 3)
        for comps in component_symbols(cb):
            for a, b in combinations(comps, 2):
                assert hamming(a, b) == 4

    def test_weight_one_is_lexicographic(self):
        cb = enumerate_weight_w(3, 1)
        assert listing(cb, " ").splitlines() == [
            "123", "132", "213", "231", "312", "321",
        ]

    def test_first_weight2_entries_are_identity_paired(self):
        cb = enumerate_weight_w(4, 2)
        heads = [t.split() for t in listing(cb, " ").splitlines()[:9]]
        assert all(h[0] == "1234" for h in heads)
        assert [h[1] for h in heads] == [
            "2143", "2341", "2413", "3142", "3412", "3421", "4123", "4312", "4321",
        ]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_weight_w(4, 0)
        with pytest.raises(ValueError):
            enumerate_weight_w(4, 4)
        with pytest.raises(ValueError):
            enumerate_weight_w(7, 1)

    @pytest.mark.parametrize("L, w", [(4, 1), (4, 2), (4, 3), (5, 2), (5, 3)])
    def test_matches_brute_force_first_set_per_mask(self, L, w):
        keys, sets = brute_force_enumeration(L, w)
        book = enumerate_weight_w(L, w)
        assert book_keys(book) == keys
        assert component_symbols(book) == sets

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_prefixes_are_entries_of_the_weight_below(self, L):
        # a canonical decomposition's prefixes are canonical for their own
        # partial matrices, so each weight grows from the book below it alone
        for w in range(2, L):
            below = {tuple(row) for row in enumerate_weight_w(L, w - 1).components.tolist()}
            assert {tuple(row[:-1]) for row in enumerate_weight_w(L, w).components.tolist()} <= below

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_masks_are_the_complements_of_weight_L_minus_w(self, L):
        full = (1 << L * L) - 1
        for w in range(1, L):
            assert set(book_keys(enumerate_weight_w(L, w))) == {
                full ^ k for k in book_keys(enumerate_weight_w(L, L - w))}

    def test_holds_arrays_not_objects(self):
        # enumerating, combining and reading the decoder tables of the
        # L = 6 book builds no per-entry Python object
        gc.collect()
        before = len(gc.get_objects())
        book = combine_codebooks([enumerate_weight_w(6, 2), enumerate_weight_w(6, 1)])
        assert book.size == 67950 + 720
        book.matrix_stack, book.weight_array, book.slot_table
        gc.collect()
        assert len(gc.get_objects()) - before < 5000

    def test_weight2_L3(self):
        # Distance-3 partners of each L=3 permutation are its two cyclic
        # shifts; the sums collapse to the complements of single permutations.
        cb = enumerate_weight_w(3, 2)
        assert cb.size == brute_force_regular_matrix_count(3, 2)


class TestCombine:
    def test_combined_sizes_and_bits(self):
        w1 = enumerate_weight_w(4, 1)
        w2 = enumerate_weight_w(4, 2)
        w3 = enumerate_weight_w(4, 3)
        both = combine_codebooks([w1, w2.subset(range(8))])
        assert both.size == 32
        assert both.bits_per_block() == 5
        full = combine_codebooks([w1, w2, w3])
        assert full.size == 138
        assert full.bits_per_block() == 7
        assert full.weights_present == (1, 2, 3)

    def test_orders_by_weight_then_components(self):
        w1 = enumerate_weight_w(4, 1)
        w2 = enumerate_weight_w(4, 2)
        both = combine_codebooks([w2.subset(range(4)), w1])
        assert both.weight_array.tolist() == [1] * 24 + [2] * 4

    @pytest.mark.parametrize("L", [4, 5])
    def test_sorts_parts_given_out_of_order(self, L):
        w1, w2, w3 = (enumerate_weight_w(L, w) for w in (1, 2, 3))
        shuffled = [w3.subset(range(w3.size - 1, -1, -1)),
                    w1.subset(np.random.default_rng(L).permutation(w1.size)),
                    w2.subset(range(w2.size - 1, -1, -1))]
        both = combine_codebooks(shuffled)
        expected = sorted((entry for part in shuffled
                           for entry in zip(component_symbols(part), book_keys(part))),
                          key=lambda entry: (len(entry[0]), entry[0]))
        assert component_symbols(both) == [comps for comps, _ in expected]
        assert book_keys(both) == [key for _, key in expected]
        assert both.weight_array.tolist() == [len(comps) for comps, _ in expected]
        ordered = combine_codebooks([w1, w2, w3])
        assert book_keys(both) == book_keys(ordered)
        assert listing(both, " ") == listing(ordered, " ")

    @pytest.mark.parametrize("L", [5, 6])
    def test_sorts_tables_either_side_of_a_compact_type(self, L):
        # the sort holds table rows in the smallest signed type that holds
        # them: L = 5's 120 rows fit int8, L = 6's 720 need int16; the
        # output is intp
        w1 = enumerate_weight_w(L, 1)
        half = w1.size // 2
        both = combine_codebooks([w1.subset(range(half, w1.size)), w1.subset(range(half))])
        assert component_symbols(both) == [(p,) for p in permutation_table(L)[1]]
        assert both.components.dtype == np.intp

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_codebooks([enumerate_weight_w(3, 1), enumerate_weight_w(4, 1)])

    def test_duplicate_rejected(self):
        w1 = enumerate_weight_w(4, 1)
        with pytest.raises(ValueError):
            combine_codebooks([w1, w1.subset([0])])


class TestSubset:
    def test_takes_entries_in_the_given_order(self):
        w1 = enumerate_weight_w(4, 1)
        part = w1.subset(iter([23, 0, 5]), label="part")
        assert part.label == "part" and part.size == 3
        assert component_symbols(part) == [component_symbols(w1)[i] for i in (23, 0, 5)]
        assert book_keys(part) == [book_keys(w1)[i] for i in (23, 0, 5)]

    @pytest.mark.parametrize("indices, bad", [([-1], -1), ([0, 24], 24), ([3, -24, 99], -24)])
    def test_rejects_an_index_outside_the_book(self, indices, bad):
        # a negative index would wrap to an entry from the end
        with pytest.raises(ValueError, match=rf"^index {bad} outside 0\.\.23$"):
            enumerate_weight_w(4, 1).subset(indices)

    @pytest.mark.parametrize("indices", [[True, False], [1.9], np.array([0.0, 3.0]), ("3",)],
                             ids=["bool-mask", "float", "float-array", "str"])
    def test_rejects_indices_that_are_not_integers(self, indices):
        # a boolean mask would be read as entries 1 and 0, and 1.9 as entry 1
        with pytest.raises(ValueError, match="^index must be an integer"):
            enumerate_weight_w(4, 1).subset(indices)

    def test_rejects_an_empty_selection(self):
        with pytest.raises(ValueError, match="at least one entry"):
            enumerate_weight_w(4, 1).subset([])


class TestLookupTables:
    BOOKS = [
        enumerate_weight_w(4, 1),
        enumerate_weight_w(4, 2),
        combine_codebooks([enumerate_weight_w(4, 1),
                           enumerate_weight_w(4, 2).subset(range(0, 90, 11))]),
        combine_codebooks([enumerate_weight_w(5, 2).subset(range(0, 2040, 97)),
                           enumerate_weight_w(5, 3).subset(range(5, 2040, 131))]),
    ]

    @pytest.mark.parametrize("cb", BOOKS, ids=lambda cb: f"{cb.L}-{cb.size}")
    def test_tables_equal_a_build_from_entries(self, cb):
        comps = component_symbols(cb)
        assert set(cb.slot_table) == set(cb.weights_present)
        for w in cb.weights_present:
            idx = [i for i, c in enumerate(comps) if len(c) == w]
            assert cb.weight_class_indices(w).tolist() == idx
            assert len(cb.slot_table[w]) == w
            for slot, table in enumerate(cb.slot_table[w]):
                perms = {comps[i][slot] for i in idx}
                assert set(table) == perms
                for p in perms:
                    assert table[p] == tuple(
                        i for i in idx if comps[i][slot] == p)
        assert len(cb.weight_class_indices(max(cb.weights_present) + 1)) == 0

    def test_tables_are_built_once_and_read_only(self):
        cb = self.BOOKS[2]
        assert cb.weight_class_indices(2) is cb.weight_class_indices(2)
        assert cb.slot_table is cb.slot_table
        with pytest.raises(ValueError):
            cb.weight_class_indices(1)[0] = 5
        with pytest.raises(TypeError):
            cb.slot_table[3] = ()
        with pytest.raises(TypeError):
            cb.slot_table[2][0] = {}
        table = cb.slot_table[2][1]
        with pytest.raises(TypeError):
            table[next(iter(table))] = (0,)
        with pytest.raises(TypeError):
            table[next(iter(table))][0] = 0


class TestEntriesView:
    """Codebook.entries, the per-entry view the benchmark tracer reads."""

    BOOKS = [named_codebook(name) for name in CODEBOOKS] + [
        combine_codebooks([enumerate_weight_w(5, w) for w in (1, 2, 3, 4)], label="L5-w1234")]

    @pytest.mark.parametrize("cb", BOOKS, ids=lambda cb: cb.label)
    def test_symbols_read_the_arrays(self, cb):
        assert cb.entries is cb.entries
        assert [len(entry.components) for entry in cb.entries] == cb.weight_array.tolist()
        for i, entry in enumerate(cb.entries):
            for slot, comp in enumerate(entry.components):
                assert comp.symbols == tuple((permutation_table(cb.L)[0][cb.components[i, slot]] + 1).tolist())


class TestBitMapping:
    """Signal v is row v of detectors.signal_stack and carries the big-endian
    bits of v (np.binary_repr(v, width)), the label the harness sends and
    compares with analysis.bit_distance."""

    def test_all_zero_bits(self):
        cb = enumerate_weight_w(4, 1)
        assert np.binary_repr(0, cb.bits_per_block(1)) == "0000"
        np.testing.assert_array_equal(signal_stack(cb, PamConfig(M=1))[0], _perm(1, 2, 3, 4))

    def test_roundtrip_bijection(self):
        w1 = enumerate_weight_w(4, 1)
        w2 = enumerate_weight_w(4, 2).subset(range(8))
        cb = combine_codebooks([w1, w2])
        for M in (1, 2):
            width = cb.bits_per_block(M)
            n = cb.signaling_count(M)
            labels = [np.binary_repr(v, width) for v in range(n)]
            assert all(len(b) == width for b in labels)
            assert [int(b, 2) for b in labels] == list(range(n))
            # the harness's bit count over label pairs is the Hamming distance
            v = np.arange(n)
            assert analysis.bit_distance(v[:, None], v[None, :]).tolist() == [
                [sum(x != y for x, y in zip(a, b)) for b in labels] for a in labels]
            rows = signal_stack(cb, PamConfig(M=M))[:n]
            assert len({r.tobytes() for r in rows}) == n

    def test_level_index_varies_fastest(self):
        cb = enumerate_weight_w(4, 1)
        pam = PamConfig(M=2)
        S = signal_stack(cb, pam)
        for row, (q, m) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]):
            expected = pam_intensity(m, 2, 1) * _perm(*component_symbols(cb)[q - 1][0])
            np.testing.assert_allclose(S[row], expected, rtol=1e-15)
        assert np.binary_repr(1, 5) == "00001"
        assert np.binary_repr(2, 5) == "00010"
        assert cb.bits_per_block(M=2) == 5

    def test_width_checks(self):
        # a decision outside the 16 signaling indices of full24, or none,
        # loses every bit of the block
        cb = enumerate_weight_w(4, 1)
        config = SimConfig(scheme="full24", detector="ml", ebn0_grid=(400.0,),
                           channel=fixture_h02(), codebook=cb)
        link = analysis._link(config)
        assert len(link.means) == cb.signaling_count(1) == 16
        Y = np.empty((analysis.BATCH_BLOCKS, 4, 4))
        for wrong in (16, 23, -1):
            off = dataclasses.replace(
                link, decode=lambda Y, tx, rng, v=wrong: (np.full(len(tx), v), 0))
            errors, blocks, _ = analysis._simulate_batch(config, off, Y, math.sqrt(1e-40 / 2), 0, 0)
            assert errors == 4 * blocks

    @pytest.mark.parametrize("bits", [49, 53, 60, 64])
    def test_bit_count_is_exact_for_any_label_width(self, bits):
        # one entry and M = 2**bits - 1 pairs: the largest power of two
        # not above that is 2**(bits - 1), which a float log2 rounds past
        cb = enumerate_weight_w(4, 1).subset([0])
        M = 2 ** bits - 1
        assert cb.bits_per_block(M) == bits - 1
        assert cb.signaling_count(M) <= cb.size * M < 2 * cb.signaling_count(M)
        assert cb.bits_per_block(M + 1) == bits

    def test_truncation_to_power_of_two(self):
        cb = enumerate_weight_w(4, 1)
        assert cb.size == 24
        assert cb.bits_per_block() == 4
        assert cb.signaling_count() == 16


class TestEntryLines:
    def test_line_shape(self):
        cb = enumerate_weight_w(4, 2).subset([0])
        assert listing(cb, " ") == "1234 2143\n"

    def test_numeric_head_fields_print_as_format_d(self):
        # a (values, width) head field reads as f"{v:{width}d}", widening
        # past width for larger numbers
        book = enumerate_weight_w(3, 1)
        idx = [0, 7, 9999, 10000, 123456, 5]
        lines = listing(book, " + ", ("<", (idx, 4), "|", (book.weight_array, 1), ">")).splitlines()
        assert lines == [f"<{v:4d}|1>{c}" for v, c in zip(idx, listing(book, " + ").splitlines())]

    @pytest.mark.parametrize("sep", ["", " ", " + ", "|", ", "])
    def test_joins_components_with_sep_and_pads_nothing(self, sep):
        # a mixed-weight book: the -1 slots past a lighter entry's weight
        # print nothing, and no line starts or ends with sep
        book = combine_codebooks([enumerate_weight_w(4, w).subset(range(3)) for w in (1, 2, 3)])
        assert book.weight_array.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert listing(book, sep) == entry_lines_oracle(book, sep)

    @pytest.mark.parametrize("L, w", [(L, w) for L in (2, 3, 4, 5) for w in range(1, L)] + [(6, 1), (6, 2)])
    def test_matches_the_components_of_every_enumerated_book(self, L, w):
        book = enumerate_weight_w(L, w)
        assert listing(book, " ") == entry_lines_oracle(book, " ")

    def test_literal_head_fields_lead_every_line(self):
        book = enumerate_weight_w(3, 2)
        lines = listing(book, " ", ("w=2", ": ")).splitlines()
        assert lines == [f"w=2: {t}" for t in entry_lines_oracle(book, " ").splitlines()]

    def test_chunks_join_to_the_whole_listing(self, monkeypatch):
        # 2040 entries in pieces of 7 rows: index crosses 999 -> 1000 inside
        # the piece of rows 994..1000, and edge crosses it between rows 1000
        # and 1001, across a piece boundary, so one piece's number columns
        # are narrower than the next one's
        monkeypatch.setattr(codebook, "_CHUNK_ROWS", 7)
        book = enumerate_weight_w(5, 2)
        index, edge = np.arange(1, book.size + 1), np.abs(np.arange(book.size) - 1)
        assert index[998:1000].tolist() == [999, 1000] and 998 // 7 == 999 // 7
        assert edge[1000:1002].tolist() == [999, 1000] and 1001 % 7 == 0
        assert [p.count("\n") for p in book.entry_chunks(" + ")] == [7] * 291 + [3]
        assert listing(book, " + ") == entry_lines_oracle(book, " + ")
        lines = listing(book, " ", ("  ", (index, 3), "  w=", (book.weight_array, 1), " ", (edge, 1), ": "))
        assert lines.splitlines() == [f"  {i:3d}  w={w} {e:1d}: {t}" for i, w, e, t in zip(
            index, book.weight_array, edge, entry_lines_oracle(book, " ").splitlines())]

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_a_head_field_of_another_length(self, extra):
        # one value per entry: a longer array would otherwise be cut at the
        # last chunk, a shorter one fail in the middle of the listing
        book = enumerate_weight_w(4, 2).subset([0, 1])
        with pytest.raises(ValueError, match=f"head field has {2 + extra} values for 2 entries"):
            listing(book, " ", ((np.arange(2 + extra), 1),))


class TestDuplicateCheck:
    """The constructor's duplicate check, one sort of the derived uint64
    masks, against a set of the oracle's masks."""

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_matches_a_set_of_cell_masks(self, L):
        rng = np.random.default_rng(L)
        # up to 40 entries of every weight but L = 6's third, drawn at random
        book = combine_codebooks([enumerate_weight_w(L, w) for w in range(1, 3 if L == 6 else L)])
        comps = book.components[rng.permutation(book.size)[:40]]
        assert len(set(book_keys(Codebook(L, comps)))) == len(comps)
        for i in (0, len(comps) // 2, len(comps) - 1):
            # the repeat lists its components in reverse: another
            # decomposition of the same matrix
            w = int((comps[i] >= 0).sum())
            repeat = np.concatenate((comps[i, :w][::-1], comps[i, w:]))
            planted = np.insert(comps, rng.integers(len(comps) + 1), repeat, axis=0)
            table = permutation_table(L)[1]
            masks = [sum(1 << (r * L + c - 1) for j in row if j >= 0 for r, c in enumerate(table[j]))
                     for row in planted.tolist()]
            assert len(set(masks)) == len(planted) - 1
            with pytest.raises(ValueError, match="duplicate matrix in codebook"):
                Codebook(L, planted)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_matrix_invariants(perm):
    m = book_of((tuple(perm),)).matrix_stack[0]
    assert m.sum() == 4
    assert (m.sum(axis=0) == 1).all()
    assert (m.sum(axis=1) == 1).all()


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
def test_distance_symmetry(p1, p2):
    # a pair sums, in either order and to one matrix, to a weight-2 entry of
    # the enumerated book exactly when it is at distance L; a closer pair
    # shares a cell, which the constructor rejects
    assert hamming(p1, p2) == hamming(p2, p1)
    if hamming(p1, p2) < 4:
        for pair in ((p1, p2), (p2, p1)):
            with pytest.raises(ValueError, match="components of an entry share a cell"):
                book_of((tuple(pair[0]), tuple(pair[1])))
        return
    key = book_keys(book_of((tuple(p1), tuple(p2))))
    assert book_keys(book_of((tuple(p2), tuple(p1)))) == key
    assert key[0] in book_keys(enumerate_weight_w(4, 2))
