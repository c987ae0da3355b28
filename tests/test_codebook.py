"""Codebook construction, counting, and bit-mapping tests."""

import dataclasses
import gc
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvlc import analysis
from pmvlc.analysis import SimConfig
from pmvlc.channel import fixture_h02
from pmvlc.codebook import (
    _canonical_components,
    _matrix_key,
    combine_codebooks,
    enumerate_weight_w,
    export_text,
    import_text,
)
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


def digits(s):
    # a codeword as export_text writes it
    return ("" if len(s) < 10 else ",").join(map(str, s))


def component_symbols(book):
    # each entry's components as 1-based symbol tuples, read from the arrays
    table = [tuple(p) for p in (book.codewords + 1).tolist()]
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
    # The L!-scan the depth-first search replaced: peel the first permutation,
    # in itertools order, that fits inside what is left of the support.
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


def book_keys(book):
    return [int.from_bytes(k.tobytes(), "little") for k in book.keys]


def cell_count_oracle(book):
    # Independent oracle for the matrices: cell (r, c) counts the components
    # whose row-r symbol is c + 1, read straight from the decompositions.
    symbols = np.array(component_symbols(book))
    return (symbols[..., None] == np.arange(1, book.L + 1)).sum(axis=1)


def random_regular_components(rng, L, w):
    # w rows of a random Latin square: disjoint permutations whose sum is a
    # w-regular support
    cols, shift = rng.permutation(L), rng.permutation(L)
    return [tuple(int(cols[(shift[r] + k) % L]) + 1 for r in range(L))
            for k in rng.choice(L, size=w, replace=False)]


class TestCodeword:
    def test_rejects_non_permutation(self):
        for bad in ("1134", "0123"):
            with pytest.raises(ValueError, match="not a permutation of 1..4"):
                import_text(f"1 {bad}\n")

    def test_matrix_rows(self):
        cb = import_text("1 2314\n")
        assert cb.weight_array.tolist() == [1]
        expected = np.array(
            [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8
        )
        assert np.array_equal(cb.matrix_stack[0], expected)

    def test_parse_roundtrip(self):
        assert export_text(import_text("1 2314\n")) == "1 2314\n"
        assert import_text("1 2,3,1,4\n").keys.tobytes() == import_text("1 2314\n").keys.tobytes()


class TestHammingDistance:
    """Two codewords sum to a weight-2 entry exactly when they are at
    Hamming distance L."""

    def test_zero_on_equal(self):
        assert hamming((1, 2, 3, 4), (1, 2, 3, 4)) == 0
        with pytest.raises(ValueError, match="overlapping"):
            import_text("2 1234 1234\n")

    def test_full_distance_pair(self):
        assert hamming((2, 3, 1, 4), (3, 1, 4, 2)) == 4
        assert import_text("2 2314 3142\n").weight_array.tolist() == [2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="component length mismatch"):
            import_text("2 12 123\n")


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
        with pytest.raises(ValueError, match="weight 1 outside 1..0"):
            import_text("1 1\n")


class TestCyclicLatin:
    def test_shift_example(self):
        shifts = cyclic_shifts((2, 3, 1, 4))
        assert shifts[1] == (3, 1, 4, 2)
        assert len(shifts) == 4
        # any L - 1 shifts sum to the complement of the last one
        cb = import_text(f"3 {' '.join(map(digits, shifts[1:]))}\n")
        np.testing.assert_array_equal(cb.matrix_stack[0], 1 - _perm(*shifts[0]))

    def test_minimal_length(self):
        assert cyclic_shifts((1, 2)) == [(1, 2), (2, 1)]
        # both shifts light every cell: weight L, every LED always on
        with pytest.raises(ValueError, match="weight 2 outside 1..1"):
            import_text("2 12 21\n")

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(1, 6))))
    def test_pairwise_distance_property(self, perm):
        shifts = cyclic_shifts(tuple(perm))
        for a, b in combinations(shifts, 2):
            assert hamming(a, b) == len(perm)
        cb = import_text(f"4 {' '.join(map(digits, shifts[:4]))}\n")
        np.testing.assert_array_equal(cb.matrix_stack[0], 1 - _perm(*shifts[4]))


class TestCodewordMatrix:
    """Entry matrices: each line's components checked, keyed by their cell
    bitmask and stored under the canonical decomposition."""

    def test_overlapping_components_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            import_text("2 1234 1324\n")

    def test_paired_sum_matches_displayed_block(self):
        cb = import_text("2 2314 3142\n")
        assert cb.weight_array.tolist() == [2]
        assert tuple(cb.matrix_stack[0, 0]) == (0, 1, 1, 0)
        assert np.array_equal(cb.matrix_stack[0], _perm(2, 3, 1, 4) + _perm(3, 1, 4, 2))

    def test_decomposition_is_lexicographically_smallest(self):
        # (1234)+(2143) and (1243)+(2134) sum to the same matrix; the stored
        # decomposition must be the smaller pair.
        cb = import_text("2 2143 1234\n")
        assert cb.component_texts(" ") == ["1234 2143"]
        assert export_text(import_text("2 1243 2134\n")) == export_text(cb)

    def test_rejects_what_is_not_a_disjoint_sum(self):
        with pytest.raises(ValueError, match="weight"):
            import_text("2 12 21\n")  # weight L: every LED always on
        with pytest.raises(ValueError, match="length"):
            import_text("2 123 21\n")
        with pytest.raises(ValueError, match="at least one"):
            import_text("0\n")
        with pytest.raises(ValueError, match="at least one"):
            _matrix_key(())

    @pytest.mark.parametrize("L", [4, 5])
    def test_search_matches_permutation_scan_on_every_enumerated_matrix(self, L):
        for w in range(1, L):
            book = enumerate_weight_w(L, w)
            assert [tuple(_canonical_components(k, L)) for k in book_keys(book)] \
                == [scan_canonical_components(m) for m in book.matrix_stack]

    def test_search_matches_permutation_scan_on_random_regular_supports(self):
        rng = np.random.default_rng(12)
        for L in (5, 6, 7):
            for w in range(1, L):
                for _ in range(3):
                    comps = random_regular_components(rng, L, w)
                    matrix = sum(_perm(*s) for s in comps)
                    assert tuple(_canonical_components(_matrix_key(tuple(comps)), L)) \
                        == scan_canonical_components(matrix)

    def test_entries_are_read_only(self):
        cb = import_text("1 213\n")
        assert cb.keys.dtype == np.uint8
        for a in (cb.codewords, cb.components, cb.keys, cb.matrix_stack, cb.weight_array):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            cb.matrix_stack[0, 0, 0] = 1

    def test_equality_is_on_entries(self):
        # an imported line and the enumerated entry with its cells share a key
        assert import_text("1 1234\n").keys.tobytes() == enumerate_weight_w(4, 1).keys[0].tobytes()

    def test_two_decompositions_compare_and_hash_equal(self):
        # (1234)+(2143) and (1243)+(2134) are one matrix written under two
        # decompositions: the key follows the cells alone
        a, b = import_text("2 1234 2143\n"), import_text("2 1243 2134\n")
        assert a.keys.tobytes() == b.keys.tobytes()
        np.testing.assert_array_equal(a.matrix_stack, b.matrix_stack)
        with pytest.raises(ValueError, match="duplicate matrix in codebook"):
            import_text("2 1234 2143\n2 1243 2134\n")
        assert import_text("2 1234 2341\n").keys.tobytes() != a.keys.tobytes()

    def test_overlapping_components_rejected_by_constructor(self):
        # (1234) and (1324) share cells (0, 0) and (3, 3)
        for line in ("2 1234 1324", "4 12345 23451 34512 31254"):
            with pytest.raises(ValueError, match="overlapping"):
                import_text(line + "\n")

    def test_key_is_the_cell_bitmask(self):
        # bit r*L + c - 1 is set for symbol c in row r
        assert _matrix_key(((2, 3, 1),)) == (1 << 1) | (1 << 5) | (1 << 6)
        assert book_keys(import_text("1 231\n")) == [(1 << 1) | (1 << 5) | (1 << 6)]

    @pytest.mark.parametrize("L,ws", [(3, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4)), (6, (1, 2))])
    def test_entries_and_matrix_stack_match_cell_oracle(self, L, ws):
        for w in ws:
            book = enumerate_weight_w(L, w)
            oracle = cell_count_oracle(book)
            assert oracle.max() == 1  # disjoint components
            np.testing.assert_array_equal(book.matrix_stack, oracle)


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
            assert [tuple(_canonical_components(k, L)) for k in book_keys(cb)] == comps
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
        assert cb.component_texts(" ") == [
            "123", "132", "213", "231", "312", "321",
        ]

    def test_first_weight2_entries_are_identity_paired(self):
        cb = enumerate_weight_w(4, 2)
        heads = [t.split() for t in cb.component_texts(" ")[:9]]
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
        assert export_text(both) == export_text(combine_codebooks([w1, w2, w3]))

    def test_merges_codeword_tables_of_imported_parts(self):
        # imported books each hold only the codewords they use, so the
        # combined order must come from the codewords, not the table rows
        a = import_text("1 4321\n1 2143\n")
        b = import_text("1 3412\n2 1234 2143\n1 1243\n")
        both = combine_codebooks([a, b])
        assert export_text(both) == "1 1243\n1 2143\n1 3412\n1 4321\n2 1234 2143\n"

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
                assert comp.symbols == tuple((cb.codewords[cb.components[i, slot]] + 1).tolist())


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
        for wrong in (16, 23, -1):
            off = dataclasses.replace(
                link, decode=lambda Y, tx, rng, v=wrong: (np.full(len(tx), v), 0))
            errors, blocks, _ = analysis._simulate_batch(config, off, 1e-40, 0, 0)
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


class TestExportImport:
    def test_roundtrip(self):
        cb = combine_codebooks(
            [enumerate_weight_w(4, 1).subset(range(4)), enumerate_weight_w(4, 2).subset(range(4))]
        )
        text = export_text(cb)
        back = import_text(text)
        assert back.size == cb.size
        assert book_keys(back) == book_keys(cb)
        assert component_symbols(back) == component_symbols(cb)

    def test_line_shape(self):
        cb = enumerate_weight_w(4, 2).subset([0])
        assert export_text(cb).splitlines()[0] == "2 1234 2143"

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            import_text("2 1234\n")

    def test_weight_zero_line_rejected(self):
        with pytest.raises(ValueError):
            import_text("0\n")

    @pytest.mark.parametrize("text, message", [
        ("2 1234 1243\n",
         "line '2 1234 1243': overlapping components: codewords must pairwise differ in every position"),
        ("2 1234 213\n", "line '2 1234 213': component length mismatch"),
        ("1 123\n1 1234\n", "entry size mismatch"),
        ("1 1224\n", "line '1 1224': not a permutation of 1..4: (1, 2, 2, 4)"),
        ("1 1234\n2 1234 2143\n1 1234\n", "duplicate matrix in codebook"),
        ("2 12 21\n", "line '2 12 21': weight 2 outside 1..1"),
        ("1 1234 2143\n", "line '1 1234 2143': weight 1 but 2 codewords"),
        ("", "no codebook entries found"),
        ("# a comment\n\n   \n", "no codebook entries found"),
        ("x 1234\n", "line 'x 1234': invalid literal for int() with base 10: 'x'"),
        ("1 12a4\n", "line '1 12a4': invalid literal for int() with base 10: 'a'"),
        ("1 1234 x\n", "line '1 1234 x': invalid literal for int() with base 10: 'x'"),
    ], ids=["overlap", "length-in-line", "length-across-lines", "not-permutation", "duplicate",
            "weight-L", "count-mismatch", "empty", "comment-only", "weight-not-integer",
            "symbol-not-integer", "codeword-not-integer"])
    def test_rejected_input(self, text, message):
        with pytest.raises(ValueError) as err:
            import_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("w", [2, 3])
    def test_reversed_components_import_to_the_enumerated_book(self, w):
        # each line's components written in reverse still import to the
        # canonical decomposition, the enumerated book's arrays
        book = enumerate_weight_w(5, w)
        text = "".join(f"{w} {' '.join(line.split()[:0:-1])}\n" for line in export_text(book).splitlines())
        assert text != export_text(book)
        back = import_text(text)
        assert back.keys.tobytes() == book.keys.tobytes()
        table = [tuple(p) for p in book.codewords.tolist()]
        assert [[tuple(p) for p in back.codewords[row].tolist()] for row in back.components] == \
            [[table[j] for j in row] for row in book.components.tolist()]
        assert export_text(back) == export_text(book)

    def test_imports_blocks_beyond_the_enumeration_limit(self):
        # L = 7 is never enumerated, but an imported entry is still stored
        # under its canonical decomposition
        shifts = cyclic_shifts((1, 2, 3, 4, 5, 6, 7))
        cb = import_text(f"2 {digits(shifts[3])} {digits(shifts[0])}\n")
        assert cb.L == 7
        assert cb.component_texts(" ") == ["1234567 4567123"]

    def test_roundtrip_with_two_digit_symbols(self):
        # from L = 10 a digit string is ambiguous ("10987654321" reads as 11
        # symbols), so symbols are written comma-separated
        reverse = tuple(range(10, 0, -1))
        shifts = cyclic_shifts(tuple(range(1, 11)))
        cb = import_text(f"1 {digits(reverse)}\n2 {digits(shifts[5])} {digits(shifts[0])}\n")
        assert component_symbols(cb) == [(reverse,), (shifts[0], shifts[5])]
        text = export_text(cb)
        assert text.splitlines()[0] == "1 10,9,8,7,6,5,4,3,2,1"
        back = import_text(text)
        assert back.L == 10
        assert component_symbols(back) == component_symbols(cb)
        assert book_keys(back) == book_keys(cb)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
def test_distance_symmetry(p1, p2):
    # a pair imports, in either order and to one matrix, exactly when it is
    # at distance L
    assert hamming(p1, p2) == hamming(p2, p1)
    lines = [f"2 {digits(a)} {digits(b)}\n" for a, b in ((p1, p2), (p2, p1))]
    if hamming(p1, p2) == 4:
        assert len({import_text(line).keys.tobytes() for line in lines}) == 1
    else:
        for line in lines:
            with pytest.raises(ValueError, match="overlapping"):
                import_text(line)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_matrix_invariants(perm):
    m = import_text(f"1 {digits(perm)}\n").matrix_stack[0]
    assert m.sum() == 4
    assert (m.sum(axis=0) == 1).all()
    assert (m.sum(axis=1) == 1).all()
