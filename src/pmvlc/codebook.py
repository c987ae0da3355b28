"""Construction and indexing of single- and multiweight permutation codebooks.

A length-L codeword is a permutation of 1..L and maps to an L x L 0/1 matrix
with a single one per row.  Summing w such matrices whose codewords pairwise
differ in every position gives a weight-w matrix: w ones in every row and
every column, so every LED fires in w slots and every slot drives w LEDs.
A codebook is a deduplicated, canonically ordered list of such matrices for
one or more weights; its first signaling_count(M) (entry, level) pairs carry
data.

A Codebook is built from and held as integer arrays: a sorted table of
0-based codewords, each entry's component rows in that table, and each
entry's cell bitmask, with bit r*L + c - 1 set for symbol c in row r, as
little-endian bytes.  Deduplication compares these masks, and the 0/1
matrices are unpacked from them only when read.  Enumeration extends index
tuples over one cached lexicographic permutation table (the one
detectors.rank_assignments ranks) with numpy and keeps the first tuple per
matrix, its canonical decomposition.  The CLI report's entry lines are
written from the arrays as byte matrices of a few thousand entries each,
each codeword as its digits (L <= 9).  Books are built by enumeration,
subset, combine_codebooks or the Codebook constructor; there is no text
import or export.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

ENUMERATION_MAX_L = 6  # exhaustive search guard
# entries per byte matrix in Codebook.entry_chunks: 4096 lines of the L = 6
# weights 1,2,3 report are a ~170 KB matrix
_CHUNK_ROWS = 4096


@cache
def permutation_table(L: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Every permutation of L items in lexicographic order, 0-based as a
    read-only (L!, L) index table and 1-based as tuples."""
    perms = list(itertools.permutations(range(L)))
    table = np.array(perms, dtype=np.intp)
    table.setflags(write=False)
    return table, tuple(tuple(c + 1 for c in p) for p in perms)


def _has_duplicate(keys: np.ndarray) -> bool:
    # keys zero-padded to whole little-endian uint64 words, sorted (a plain
    # sort for one word, L <= 8), and each compared with its neighbour
    words = np.zeros((len(keys), -(-keys.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :keys.shape[1]] = keys
    words = words.view("<u8")
    words = np.sort(words, axis=0) if words.shape[1] == 1 else words[np.lexsort(words.T)]
    return bool((words[1:] == words[:-1]).all(axis=1).any())


def _number_columns(values, width: int) -> np.ndarray:
    # (len(values), D) ASCII of non-negative integers as f"{v:{width}d}",
    # D columns for the widest; NUL fills the columns past width that a
    # shorter number leaves, so dropping NULs leaves each one's own text
    rest = np.array(values, dtype=np.int64)
    D = max(width, len(str(rest.max())))
    out = np.zeros((len(rest), D), dtype=np.uint8)
    out[:, D - width:] = ord(" ")
    for k in range(D - 1, -1, -1):  # one digit column at a time, from the right
        shown = (rest > 0) | (k == D - 1)
        rest, digit = np.divmod(rest, 10)
        np.copyto(out[:, k], digit + ord("0"), casting="unsafe", where=shown)
    return out


def _unpack_keys(keys: np.ndarray, L: int) -> np.ndarray:
    # (len(keys), L, L) uint8 cells of the given key bytes, one unpack
    return np.unpackbits(keys, axis=1, count=L * L, bitorder="little").reshape(-1, L, L)


def _grow(tup: np.ndarray, key: np.ndarray, w: int, later_far: np.ndarray, cells: np.ndarray):
    # Yields, in lexicographic order, pieces of the ascending w-tuples that
    # extend the rows of tup, with their cell masks.  Row j of later_far
    # packs, as little-endian uint64 words, the later codewords that differ
    # from j everywhere.  Rows are extended 1024 at a time, so the arrays
    # held at once stay bounded at any w.
    if tup.shape[1] == w:
        yield tup, key
        return
    for lo in range(0, len(tup), 1024):
        t = tup[lo:lo + 1024]
        # every later codeword that differs everywhere from all of the row's
        fits = np.bitwise_and.reduce(later_far[t], axis=1)
        rows, word = np.nonzero(fits)
        hit, bit = np.nonzero(np.unpackbits(fits[rows, word].view(np.uint8).reshape(-1, 8),
                                            axis=1, bitorder="little"))
        rows, nxt = rows[hit], (word[hit] * 64 + bit).astype(np.int16)  # L! <= 720
        yield from _grow(np.column_stack((t[rows], nxt)), key[lo:lo + 1024][rows] | cells[nxt],
                         w, later_far, cells)


def _first_per_mask(keys: list, tuples: list) -> tuple[list, list]:
    # a stable sort keeps equal masks in the order met, so the first of each
    # run is the first seen; its indices, sorted, keep first-seen order
    key, tup = np.concatenate(keys), np.concatenate(tuples)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    first = order[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    first.sort()
    return [key[first]], [tup[first]]


def enumerate_weight_w(L: int, w: int) -> "Codebook":
    """All weight-w matrices built from w pairwise distance-L codewords.

    Ascending index tuples into permutation_table(L) grow one codeword at a
    time, and a tuple's matrix is the OR of its codewords' cell masks.
    Distinct tuples can sum to one matrix, so only the first per mask is
    kept: tuples are met in lexicographic order, so it is the canonical
    (lexicographically smallest) decomposition, and first-seen order is the
    canonical order.
    """
    if not 2 <= L <= ENUMERATION_MAX_L:
        raise ValueError(f"L must be in 2..{ENUMERATION_MAX_L}")
    if not 1 <= w <= L - 1:
        raise ValueError(f"w must be in 1..{L - 1}")
    table, _ = permutation_table(L)
    P = len(table)
    far = np.ones((P, P), dtype=bool)
    for col in table.T:
        far &= col[:, None] != col[None, :]
    cells = np.bitwise_or.reduce(np.uint64(1) << (L * np.arange(L) + table).astype(np.uint64), axis=1)
    later_far = np.packbits(np.triu(far, 1), axis=1, bitorder="little")
    later_far = np.pad(later_far, ((0, 0), (0, -later_far.shape[1] % 8))).view("<u8")
    keys, tuples = [], []
    for tup, key in _grow(np.arange(P, dtype=np.int16)[:, None], cells, w, later_far, cells):
        keys.append(key)
        tuples.append(tup)
        # drop repeats now and then; 2**19 tops the largest book, L = 6, w = 3 (297 200)
        if sum(map(len, keys)) > 1 << 19:
            keys, tuples = _first_per_mask(keys, tuples)
    (key,), (tup,) = _first_per_mask(keys, tuples)
    key_bytes = key.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :(L * L + 7) // 8]
    return Codebook(L, table, tup.astype(np.intp), key_bytes, label=f"P({L},{len(key)},w={w})")


class _Component(NamedTuple):
    symbols: tuple[int, ...]


class _Entry(NamedTuple):
    components: tuple[_Component, ...]


class Codebook:
    """Ordered collection of codeword matrices sharing one block length L.

    Built from, and held as, three arrays for every L: ``codewords``, a
    sorted (P, L) table of 0-based permutations (permutation_table(L) for an
    enumerated book); ``components``, the (Q, w_max) table rows each entry
    sums, -1 past its weight; ``keys``, the (Q, ceil(L*L / 8)) little-endian
    bytes of each entry's cell bitmask.
    """

    def __init__(self, L: int, codewords, components, keys, label: str = ""):
        if not len(components):
            raise ValueError("codebook must contain at least one entry")
        keys = np.ascontiguousarray(keys)
        if _has_duplicate(keys):
            raise ValueError("duplicate matrix in codebook")
        for a in (codewords, components, keys):
            a.setflags(write=False)
        self.L, self.codewords, self.components, self.keys, self.label = L, codewords, components, keys, label

    @property
    def size(self) -> int:
        return len(self.components)

    @cached_property
    def weights_present(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.weight_array.tolist())))

    def bits_per_block(self, M: int = 1) -> int:
        if M < 1:
            raise ValueError("M must be at least 1")
        return (self.size * M).bit_length() - 1

    def signaling_count(self, M: int = 1) -> int:
        """Number of (entry, level) pairs that carry data: the largest power of two."""
        return 2 ** self.bits_per_block(M)

    @cached_property
    def matrix_stack(self) -> np.ndarray:
        s = _unpack_keys(self.keys, self.L).astype(np.float64)
        s.setflags(write=False)
        return s

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = (self.components >= 0).sum(axis=1, dtype=np.int64)
        w.setflags(write=False)
        return w

    @cached_property
    def entries(self) -> tuple[_Entry, ...]:
        """Read-only view for perfbench/tracer.py::_slot_members, which goes
        with ROADMAP item 1: entries[i].components[slot].symbols is the
        1-based tuple of codewords[components[i, slot]] + 1."""
        perms = [_Component(tuple(p)) for p in (self.codewords + 1).tolist()]
        return tuple(_Entry(tuple(perms[j] for j in row[:w]))
                     for row, w in zip(self.components.tolist(), self.weight_array.tolist()))

    def entry_chunks(self, sep: str, head=()):
        """One newline-terminated line per entry: the head fields, then its
        component codewords joined by sep, each as its digits, so L <= 9.
        A head field is literal text, or a (non-negative integers, width)
        pair, one integer per entry, printed as f"{v:{width}d}".

        The text comes in pieces of _CHUNK_ROWS entries, in order.  Each
        piece is written as a byte matrix, NUL-padded to its longest line,
        and one compaction drops the padding, so no Python code runs per
        entry and the working memory beyond the text is one piece's.  A
        caller that joins the pieces into longer text builds that text once,
        instead of once for the lines and again around them."""
        if self.L >= 10:
            raise ValueError(f"entry lines print one digit per symbol, so L must be at most 9, got {self.L}")
        for f in head:
            if not isinstance(f, str) and len(f[0]) != self.size:
                raise ValueError(f"head field has {len(f[0])} values for {self.size} entries")
        words = (self.codewords + ord("1")).astype(np.uint8)
        # each codeword's text after sep, and an all-NUL row that the -1
        # slots past an entry's weight gather
        gap = len(sep)
        text = np.zeros((len(words) + 1, gap + words.shape[1]), dtype=np.uint8)
        text[:-1, :gap] = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
        text[:-1, gap:] = words
        for lo in range(0, self.size, _CHUNK_ROWS):
            comps = self.components[lo:lo + _CHUNK_ROWS]
            n = len(comps)
            cols = [np.broadcast_to(np.frombuffer(f.encode("ascii"), dtype=np.uint8), (n, len(f)))
                    if isinstance(f, str) else _number_columns(f[0][lo:lo + n], f[1]) for f in head]
            # the first component has no separator before it
            chars = np.concatenate([*cols, text[comps].reshape(n, -1)[:, gap:],
                                    np.full((n, 1), ord("\n"), dtype=np.uint8)], axis=1)
            yield chars[chars != 0].tobytes().decode("ascii")

    @cached_property
    def _class_indices(self) -> dict[int, np.ndarray]:
        out = {w: np.flatnonzero(self.weight_array == w) for w in self.weights_present}
        for idx in out.values():
            idx.setflags(write=False)
        return out

    def weight_class_indices(self, w: int) -> np.ndarray:
        """Ascending indices of the weight-w entries, read-only if w is present."""
        idx = self._class_indices.get(w)
        return idx if idx is not None else np.flatnonzero(self.weight_array == w)

    @cached_property
    def slot_table(self) -> MappingProxyType:
        """Read-only weight -> component slot -> {permutation: ascending indices
        of the entries with that canonical component in that slot}."""
        perms = [tuple(p) for p in (self.codewords + 1).tolist()]
        table = {}
        for w in self.weights_present:
            idx = self.weight_class_indices(w)
            slots = [{} for _ in range(w)]
            for i, row in zip(idx.tolist(), self.components[idx, :w].tolist()):
                for slot, j in zip(slots, row):
                    slot.setdefault(j, []).append(i)
            table[w] = tuple(MappingProxyType({perms[j]: tuple(ix) for j, ix in s.items()})
                             for s in slots)
        return MappingProxyType(table)

    def subset(self, indices, label: str = "") -> "Codebook":
        idx = np.fromiter(indices, dtype=np.intp)
        outside = idx[(idx < 0) | (idx >= self.size)]
        if len(outside):
            raise ValueError(f"index {outside[0]} outside 0..{self.size - 1}")
        return Codebook(self.L, self.codewords, self.components[idx], self.keys[idx], label or self.label)


def combine_codebooks(parts: list[Codebook] | tuple[Codebook, ...], label: str = "") -> Codebook:
    """Union of per-weight codebooks in canonical order (weight, then components)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("no codebooks to combine")
    L = parts[0].L
    if any(p.L != L for p in parts):
        raise ValueError("codebooks must share the block length")
    # one sorted codeword table, so index tuples sort as their codewords do
    table, inverse = np.unique(np.concatenate([p.codewords for p in parts]), axis=0, return_inverse=True)
    # the components as table rows in the smallest type that holds them, so
    # the sort and its gather hold a fraction of the (Q, w_max) intp output
    Q, width = sum(p.size for p in parts), max(p.components.shape[1] for p in parts)
    comps = np.full((Q, width), -1, dtype=np.min_scalar_type(-len(table)))
    inverse = inverse.astype(comps.dtype)
    q = offset = 0
    for p in parts:
        c = p.components
        comps[q:q + p.size, :c.shape[1]] = np.where(c >= 0, inverse[offset:offset + len(p.codewords)][c], -1)
        q, offset = q + p.size, offset + len(p.codewords)
    order = np.lexsort((*comps.T[::-1], (comps >= 0).sum(axis=1, dtype=np.int8)))
    # each stage frees its table before the next one copies: at most one
    # full copy beside the output, also while the constructor checks keys
    components = comps[order].astype(np.intp)
    del comps
    keys = np.concatenate([p.keys for p in parts])[order]
    del order
    return Codebook(L, table, components, keys, label)
