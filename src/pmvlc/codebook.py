"""Construction and indexing of single- and multiweight permutation codebooks.

A length-L codeword is a permutation of 1..L and maps to an L x L 0/1 matrix
with a single one per row.  Summing w such matrices whose codewords pairwise
differ in every position gives a weight-w matrix: w ones in every row and
every column, so every LED fires in w slots and every slot drives w LEDs.
A codebook is a deduplicated, canonically ordered list of such matrices for
one or more weights; its first signaling_count(M) (entry, level) pairs carry
data.

A matrix is identified by its cell bitmask, with bit r*L + c - 1 set for
symbol c in row r: a Python int on a CodewordMatrix, little-endian bytes in
a Codebook's key array.  Equality, hashing and deduplication compare these
masks, and the uint8 entry arrays are unpacked from them only when read.
A Codebook is built from and holds arrays: each entry's mask and the rows
of its components in a sorted codeword table.  Enumeration extends index
tuples over one cached lexicographic permutation table (the one
detectors.murty_iter ranks) with numpy and keeps the first tuple per
matrix, its canonical decomposition; import peels each line's mask to it.
CodewordMatrix objects are built only when a book's ``entries`` are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

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


@dataclass(frozen=True)
class Codeword:
    """A permutation of 1..L; symbol c_i activates column c_i in row i."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        s = tuple(int(x) for x in self.symbols)
        object.__setattr__(self, "symbols", s)
        if len(s) < 1 or sorted(s) != list(range(1, len(s) + 1)):
            raise ValueError(f"not a permutation of 1..{len(s)}: {s}")

    @property
    def length(self) -> int:
        return len(self.symbols)

    @cached_property
    def cells(self) -> int:
        """Cell bitmask of the codeword's matrix: bit r*L + c - 1 for symbol c in row r."""
        L = len(self.symbols)
        return sum(1 << (r * L + c - 1) for r, c in enumerate(self.symbols))

    @cached_property
    def _text(self) -> str:
        # digit strings while every symbol is one digit; commas from L = 10 on
        return ("" if len(self.symbols) < 10 else ",").join(str(x) for x in self.symbols)

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "Codeword":
        """Inverse of str(): a digit string or comma-separated symbols."""
        text = text.strip()
        return cls(tuple(int(f) for f in (text.split(",") if "," in text else text)))


def codeword_to_matrix(codeword: Codeword | tuple[int, ...]) -> "CodewordMatrix":
    """Weight-1 matrix of a codeword: row i has its single one at column c_i."""
    cw = codeword if isinstance(codeword, Codeword) else Codeword(tuple(codeword))
    return CodewordMatrix((cw,))


def hamming_distance(c1, c2) -> int:
    """Number of positions where two codewords disagree."""
    s1 = c1.symbols if isinstance(c1, Codeword) else tuple(c1)
    s2 = c2.symbols if isinstance(c2, Codeword) else tuple(c2)
    if len(s1) != len(s2):
        raise ValueError("codeword length mismatch")
    return sum(a != b for a, b in zip(s1, s2))


def count_distance_L(L: int) -> int:
    """Number of permutations at Hamming distance L from a fixed codeword.

    Exact integer evaluation of L! * sum_{k=0..L} (-1)^k / k!; equivalently
    the number of permutations that disagree with a reference in every
    position, which does not depend on the reference.
    """
    if L < 2:
        raise ValueError("L must be at least 2")
    return sum((-1) ** k * (math.factorial(L) // math.factorial(k)) for k in range(L + 1))


def cyclic_latin_codebook(c0: Codeword | tuple[int, ...]) -> list[Codeword]:
    """All L cyclic shifts of a codeword.

    Shifting moves every symbol to a new position while keeping symbols
    distinct, so any two shifts disagree in every position: the L codewords
    are pairwise at Hamming distance L (the rows of a Latin square).
    """
    s = c0.symbols if isinstance(c0, Codeword) else tuple(c0)
    cw = Codeword(s)
    L = cw.length
    return [Codeword(s[i:] + s[:i]) for i in range(L)]


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
        key &= ~sum(1 << (r * L + c) for r, c in enumerate(p))
    return comps


def _matrix_key(codewords: tuple[Codeword, ...]) -> int:
    # cell bitmask of the codewords' sum, checked to be a weight-w matrix
    if not codewords:
        raise ValueError("a codeword matrix needs at least one component")
    L = codewords[0].length
    key = 0
    for cw in codewords:
        if cw.length != L:
            raise ValueError("component length mismatch")
        key |= cw.cells
    if not 1 <= len(codewords) <= L - 1:
        raise ValueError(f"weight {len(codewords)} outside 1..{L - 1}")
    # overlapping components collapse onto shared cells
    if key.bit_count() != len(codewords) * L:
        raise ValueError("overlapping components: codewords must pairwise differ in every position")
    return key


@dataclass(frozen=True, eq=False)
class CodewordMatrix:
    """A weight-w 0/1 block: the disjoint sum of w permutation matrices.

    Only the decomposition ``components`` and its cell bitmask ``key`` are
    stored: ``key`` is the union of the components' ``Codeword.cells``, an int
    with bit r*L + c - 1 set for symbol c in row r, and it alone identifies
    the matrix, so equality and hashing compare keys.  ``entries``, the
    read-only uint8 array, is unpacked from the key on first read.
    Disjoint permutations of one length already give every row and column w
    ones, so construction checks nothing else.  ``from_components`` and
    enumeration store the lexicographically smallest decomposition.
    """

    components: tuple[Codeword, ...]
    key: int = field(init=False, repr=False)

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "key", _matrix_key(comps))

    @property
    def weight(self) -> int:
        return len(self.components)

    @property
    def L(self) -> int:
        return self.components[0].length

    @cached_property
    def entries(self) -> np.ndarray:
        e = _unpack_keys(_key_bytes([self.key], self.L), self.L)[0]
        e.setflags(write=False)
        return e

    def __eq__(self, other) -> bool:
        return isinstance(other, CodewordMatrix) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @classmethod
    def from_components(cls, codewords) -> "CodewordMatrix":
        """The block the codewords sum to, under its canonical decomposition."""
        cm = cls(tuple(cw if isinstance(cw, Codeword) else Codeword(tuple(cw)) for cw in codewords))
        given = {cw.symbols: cw for cw in cm.components}
        return cls(tuple(given.get(p) or Codeword(p) for p in _canonical_components(cm.key, cm.L)))


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


class Codebook:
    """Ordered collection of codeword matrices sharing one block length L.

    Built from, and held as, three arrays for every L: ``codewords``, a
    sorted (P, L) table of 0-based permutations (permutation_table(L) for an
    enumerated book); ``components``, the (Q, w_max) table rows each entry
    sums, -1 past its weight; ``keys``, the (Q, ceil(L*L / 8)) little-endian
    bytes of each entry's cell bitmask.  ``entries``, one CodewordMatrix per
    entry, is built on first read.
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
    def _codewords(self) -> tuple[Codeword, ...]:
        return tuple(Codeword(tuple(p)) for p in (self.codewords + 1).tolist())

    @cached_property
    def entries(self) -> tuple[CodewordMatrix, ...]:
        cws = self._codewords
        return tuple(CodewordMatrix(tuple(cws[j] for j in row[:w]))
                     for row, w in zip(self.components.tolist(), self.weight_array.tolist()))

    def component_texts(self, sep: str) -> list[str]:
        """Each entry's component codewords as text, joined by sep."""
        text = np.array([str(cw) for cw in self._codewords], dtype=object)
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
        table = {}
        for w in self.weights_present:
            idx = self.weight_class_indices(w)
            slots = [{} for _ in range(w)]
            for i, row in zip(idx.tolist(), self.components[idx, :w].tolist()):
                for slot, j in zip(slots, row):
                    slot.setdefault(j, []).append(i)
            table[w] = tuple(MappingProxyType({self._codewords[j].symbols: tuple(ix) for j, ix in s.items()})
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
    keys, rows = [], []
    parsed: dict[str, Codeword] = {}  # one Codeword per distinct codeword text
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        w = int(fields[0])
        comps = tuple(parsed.get(f) or parsed.setdefault(f, Codeword.parse(f)) for f in fields[1:])
        if len(comps) != w:
            raise ValueError(f"line {line!r}: weight {w} but {len(comps)} codewords")
        keys.append(_matrix_key(comps))
        rows.append(_canonical_components(keys[-1], comps[0].length))
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
