"""Construction and indexing of single- and multiweight permutation codebooks.

A length-L codeword is a permutation of 1..L and maps to an L x L 0/1 matrix
with a single one per row.  Summing w such matrices whose codewords pairwise
differ in every position gives a weight-w matrix: w ones in every row and
every column, so every LED fires in w slots and every slot drives w LEDs.
A codebook is a deduplicated, canonically ordered list of such matrices for
one or more weights; its first signaling_count(M) (entry, level) pairs carry
data.

A Codebook is built from, and held as, one integer array: each entry's
component rows in the cached lexicographic table permutation_table(L), -1
past its weight.  The constructor checks the entries by their cell bitmasks
(bit r*L + c - 1 set for symbol c in row r, one uint64 each), and the 0/1
matrices are built from the rows only when read.  Enumeration adds one
component at a time to tuples of table rows with disjoint cell masks and
keeps the first tuple per mask, its canonical decomposition.  The CLI
report's entry lines are written from the arrays as byte matrices of a few
thousand entries each, each codeword as its digits.  Books are built by
enumeration, subset, combine_codebooks or the Codebook constructor; there is
no text import or export.
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


@cache
def permutation_cells(L: int) -> np.ndarray:
    """Read-only (L!, L) flat cells r*L + c of each permutation_table(L) row."""
    cells = permutation_table(L)[0] + L * np.arange(L)
    cells.setflags(write=False)
    return cells


@cache
def _cell_masks(L: int) -> np.ndarray:
    # each permutation_table(L) row's cells as one uint64 bitmask (L <= 6)
    masks = np.bitwise_or.reduce(np.uint64(1) << permutation_cells(L).astype(np.uint64), axis=1)
    masks.setflags(write=False)
    return masks


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


def _as_indices(values, lo: int, n: int, name: str) -> np.ndarray:
    # values as intp, each in lo..n - 1; a non-integer (a boolean too) raises
    # instead of being truncated to an index, and the range is checked in
    # the input's own type, before a large unsigned value could wrap
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, not {arr.dtype}")
    outside = arr[(arr < lo) | (arr >= n)]
    if len(outside):
        raise ValueError(f"{name} {outside[0]} outside 0..{n - 1}")
    return arr.astype(np.intp, copy=False)


def _first_per_mask(keys: list, tuples: list) -> tuple[list, list]:
    # np.unique's return_index (a stable sort) is each mask's first occurrence
    key, tup = np.concatenate(keys), np.concatenate(tuples)
    keys.clear(), tuples.clear()  # the pieces go before unique's sort copies
    first = np.sort(np.unique(key, return_index=True)[1])
    return [key[first]], [tup[first]]


def enumerate_weight_w(L: int, w: int) -> "Codebook":
    """All weight-w matrices built from w pairwise distance-L codewords.

    Tuples of permutation_table(L) rows grow one component at a time: each
    kept tuple takes every later row whose cell mask misses its own, and of
    the tuples sharing a mask only the first in lexicographic order is kept,
    the matrix's canonical (smallest) decomposition, in canonical order.
    Dropping the others at every step is exact: every row inside a regular
    0/1 matrix extends to a decomposition (König), so each prefix of a
    canonical tuple is canonical for its own partial matrix.
    """
    if not 2 <= L <= ENUMERATION_MAX_L:
        raise ValueError(f"L must be in 2..{ENUMERATION_MAX_L}")
    if not 1 <= w <= L - 1:
        raise ValueError(f"w must be in 1..{L - 1}")
    cells = _cell_masks(L)
    rows = np.arange(len(cells), dtype=np.int16)  # L! <= 720
    key, tup = cells, rows[:, None]
    for _ in range(w - 1):
        keys, tuples = [], []
        for lo in range(0, len(tup), 256):  # 256 tuples at a time bound the arrays held
            k, t = key[lo:lo + 256], tup[lo:lo + 256]
            i, nxt = np.nonzero(((k[:, None] & cells) == 0) & (rows > t[:, -1:]))
            keys.append(k[i] | cells[nxt])
            tuples.append(np.column_stack((t[i], rows[nxt])))
            # drop repeats now and then; the L = 6, w = 3 step meets 1.8 M tuples
            if sum(map(len, keys)) > 1 << 19:
                keys, tuples = _first_per_mask(keys, tuples)
        (key,), (tup,) = _first_per_mask(keys, tuples)
    return Codebook(L, tup.astype(np.intp), label=f"P({L},{len(key)},w={w})")


class _Component(NamedTuple):
    symbols: tuple[int, ...]


class _Entry(NamedTuple):
    components: tuple[_Component, ...]


class Codebook:
    """Ordered collection of codeword matrices sharing one block length L.

    Built from, and held as, ``components``: the (Q, w_max) rows of
    permutation_table(L) each entry sums, -1 past its weight (2 <= L <=
    ENUMERATION_MAX_L).  The constructor ORs each entry's uint64 cell mask
    from the cached per-row masks, one component column at a time, and
    raises ValueError for a component that is not an integer (booleans
    included), a row outside the table, an entry that does not start with a
    component or has -1 before one, components that share a cell, or two
    entries of one matrix (equal masks).
    """

    def __init__(self, L: int, components, label: str = ""):
        if not 2 <= L <= ENUMERATION_MAX_L:
            raise ValueError(f"L must be in 2..{ENUMERATION_MAX_L}")
        cells = _cell_masks(L)
        components = _as_indices(components, -1, len(cells), "component row")
        if components.ndim != 2 or not components.size:
            raise ValueError("codebook must contain at least one entry")
        used = components >= 0
        if not (used[:, 0].all() and (used[:, :-1] >= used[:, 1:]).all()):
            raise ValueError("an entry's components must come first, then -1 past its weight")
        masks = np.zeros(len(components), dtype=np.uint64)
        for col in components.T:
            m = np.where(col >= 0, cells[col], np.uint64(0))
            if (masks & m).any():
                raise ValueError("components of an entry share a cell")
            masks |= m
        if not np.diff(np.sort(masks)).all():
            raise ValueError("duplicate matrix in codebook")
        components.setflags(write=False)
        self.L, self.components, self.label = L, components, label

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
        s = np.zeros((self.size, self.L, self.L))
        for col in self.components.T:  # one 1 per row of each component, at its flat cells
            rows = np.flatnonzero(col >= 0)
            s.reshape(self.size, -1)[rows[:, None], permutation_cells(self.L)[col[rows]]] = 1.0
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
        with ROADMAP item 1: entries[i].components[slot].symbols is
        permutation_table(L)[1][components[i, slot]], 1-based."""
        perms = [_Component(p) for p in permutation_table(self.L)[1]]
        return tuple(_Entry(tuple(perms[j] for j in row if j >= 0)) for row in self.components.tolist())

    def entry_chunks(self, sep: str, head=()):
        """One newline-terminated line per entry: the head fields, then its
        component codewords joined by sep, each as its digits.
        A head field is literal text, or a (non-negative integers, width)
        pair, one integer per entry, printed as f"{v:{width}d}".

        The text comes in pieces of _CHUNK_ROWS entries, in order.  Each
        piece is written as a byte matrix, NUL-padded to its longest line,
        and one compaction drops the padding, so no Python code runs per
        entry and the working memory beyond the text is one piece's.  A
        caller that joins the pieces into longer text builds that text once,
        instead of once for the lines and again around them."""
        for f in head:
            if not isinstance(f, str) and len(f[0]) != self.size:
                raise ValueError(f"head field has {len(f[0])} values for {self.size} entries")
        words = (permutation_table(self.L)[0] + ord("1")).astype(np.uint8)
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
        perms = permutation_table(self.L)[1]
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
        idx = _as_indices(list(indices), 0, self.size, "index")
        return Codebook(self.L, self.components[idx], label or self.label)


def combine_codebooks(parts: list[Codebook] | tuple[Codebook, ...], label: str = "") -> Codebook:
    """Union of per-weight codebooks in canonical order (weight, then components)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("no codebooks to combine")
    L = parts[0].L
    if any(p.L != L for p in parts):
        raise ValueError("codebooks must share the block length")
    # the components in the smallest type that holds a table row, so the
    # sort and its gather hold a fraction of the (Q, w_max) intp output;
    # rows of the lexicographic table sort as their codewords do
    width = max(p.components.shape[1] for p in parts)
    small = np.min_scalar_type(-len(permutation_table(L)[0]))
    comps = np.concatenate([np.pad(p.components.astype(small), ((0, 0), (0, width - p.components.shape[1])),
                                   constant_values=-1) for p in parts])
    order = np.lexsort((*comps.T[::-1], (comps >= 0).sum(axis=1, dtype=np.int8)))
    # each stage frees its table before the next one copies: at most one
    # full copy beside the output, also while the constructor derives masks
    components = comps[order].astype(np.intp)
    del comps, order
    return Codebook(L, components, label)
