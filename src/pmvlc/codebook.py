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
detectors.murty_iter ranks) with numpy and keeps the first tuple per matrix,
its canonical decomposition; import peels each line's mask to it.  Text
export prints digit rows from the arrays, and import parses them to symbol
tuples.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

ENUMERATION_MAX_L = 6  # exhaustive search guard


@cache
def permutation_table(L: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Every permutation of L items in lexicographic order, 0-based as a
    read-only (L!, L) index table and 1-based as tuples."""
    perms = list(itertools.permutations(range(L)))
    table = np.array(perms, dtype=np.intp)
    table.setflags(write=False)
    return table, tuple(tuple(c + 1 for c in p) for p in perms)


@lru_cache(maxsize=1 << 16)  # import meets each permutation on many lines
def _cells(symbols: tuple[int, ...]) -> int:
    # cell bitmask of a permutation's matrix: bit r*L + c - 1 for symbol c in row r
    L = len(symbols)
    return sum(1 << (r * L + c - 1) for r, c in enumerate(symbols))


def _smallest_permutation(rows: list[int], used: int = 0):
    # Depth-first over rows in order, trying each row's free support columns
    # (bitmask rows[r]) in ascending order, so the first complete
    # permutation is the smallest.  Returns its 0-based columns.
    r = used.bit_count()
    if r == len(rows):
        return ()
    free = rows[r] & ~used
    while free:
        bit = free & -free
        rest = _smallest_permutation(rows, used | bit)
        if rest is not None:
            return (bit.bit_length() - 1,) + rest
        free ^= bit
    return None


def _canonical_components(key: int, L: int) -> list[tuple[int, ...]]:
    # Peel the lexicographically smallest permutation off the support until
    # nothing is left.  A w-regular 0/1 matrix always splits into w disjoint
    # permutation matrices (Koenig), so every permutation inside the support
    # extends to a decomposition, and the greedy peel is the lexicographically
    # smallest one.  The search stops at the permutation it peels.  Returns
    # the 1-based symbols of each component.
    row = (1 << L) - 1
    comps = []
    while key:
        p = _smallest_permutation([key >> (r * L) & row for r in range(L)])
        comps.append(tuple(c + 1 for c in p))
        key &= ~_cells(comps[-1])
    return comps


def _parse(text: str) -> tuple[int, ...]:
    # a digit string, or comma-separated symbols from L = 10 on
    s = tuple(int(f) for f in (text.split(",") if "," in text else text))
    if sorted(s) != list(range(1, len(s) + 1)):
        raise ValueError(f"not a permutation of 1..{len(s)}: {s}")
    return s


def _matrix_key(comps: tuple[tuple[int, ...], ...]) -> int:
    # cell bitmask of the permutations' sum, checked to be a weight-w matrix
    if not comps:
        raise ValueError("a codeword matrix needs at least one component")
    L = len(comps[0])
    key = 0
    for s in comps:
        if len(s) != L:
            raise ValueError("component length mismatch")
        key |= _cells(s)
    if not 1 <= len(comps) <= L - 1:
        raise ValueError(f"weight {len(comps)} outside 1..{L - 1}")
    # overlapping components collapse onto shared cells
    if key.bit_count() != len(comps) * L:
        raise ValueError("overlapping components: codewords must pairwise differ in every position")
    return key


def _key_bytes(keys, L: int) -> np.ndarray:
    # (len(keys), ceil(L*L / 8)) little-endian bytes of the given cell bitmasks
    n = (L * L + 7) // 8
    return np.frombuffer(b"".join(k.to_bytes(n, "little") for k in keys), dtype=np.uint8).reshape(-1, n)


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
    key, tup = np.concatenate(keys), np.concatenate(tuples)
    first = np.sort(np.unique(key, return_index=True)[1])
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
        if len(np.unique(keys.view(f"V{keys.shape[1]}"), return_index=True)[1]) != len(keys):
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

    def component_texts(self, sep: str) -> list[str]:
        """Each entry's component codewords as text, joined by sep: digit
        strings, or comma-separated symbols from L = 10 on."""
        sym = "" if self.L < 10 else ","
        text = np.array([sym.join(map(str, p)) for p in (self.codewords + 1).tolist()], dtype=object)
        out = np.empty(self.size, dtype=object)
        for w in self.weights_present:
            idx = self.weight_class_indices(w)
            out[idx] = [sep.join(r) for r in text[self.components[idx, :w]].tolist()]
        return out.tolist()

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
    comps = np.full((sum(p.size for p in parts), max(p.components.shape[1] for p in parts)), -1, dtype=np.intp)
    q = offset = 0
    for p in parts:
        c = p.components
        comps[q:q + p.size, :c.shape[1]] = np.where(c >= 0, inverse[offset + c], -1)
        q, offset = q + p.size, offset + len(p.codewords)
    order = np.lexsort((*comps.T[::-1], (comps >= 0).sum(axis=1)))
    keys = np.concatenate([p.keys for p in parts])[order]
    return Codebook(L, table, comps[order], keys, label)


def export_text(codebook: Codebook) -> str:
    """One line per entry: weight, then the component codewords as digit
    strings (comma-separated symbols for L >= 10)."""
    return "".join(f"{w} {comps}\n" for w, comps in
                   zip(codebook.weight_array.tolist(), codebook.component_texts(" ")))


def import_text(text: str, label: str = "") -> Codebook:
    """Inverse of export_text; blank and '#' lines are skipped.  Each entry is
    stored under its canonical decomposition, and a rejected line is named."""
    keys, rows = [], []
    parsed: dict[str, tuple[int, ...]] = {}  # one parse per distinct codeword text
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, *fields = line.split()
            w = int(head)
            comps = tuple(parsed.get(f) or parsed.setdefault(f, _parse(f)) for f in fields)
            if len(comps) != w:
                raise ValueError(f"weight {w} but {len(comps)} codewords")
            keys.append(_matrix_key(comps))
        except ValueError as exc:
            raise ValueError(f"line {line!r}: {exc}") from None
        rows.append(_canonical_components(keys[-1], len(comps[0])))
    if not keys:
        raise ValueError("no codebook entries found")
    L = len(rows[0][0])
    if any(len(row[0]) != L for row in rows):
        raise ValueError("entry size mismatch")
    table = sorted({p for row in rows for p in row})
    index = {p: i for i, p in enumerate(table)}
    width = max(map(len, rows))
    comps = np.array([[index[p] for p in row] + [-1] * (width - len(row)) for row in rows], dtype=np.intp)
    return Codebook(L, np.array(table, dtype=np.intp) - 1, comps, _key_bytes(keys, L), label)
