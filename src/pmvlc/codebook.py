"""Construction and indexing of single- and multiweight permutation codebooks.

A length-L codeword is a permutation of 1..L and maps to an L x L 0/1 matrix
with a single one per row.  Summing w such matrices whose codewords pairwise
differ in every position gives a weight-w matrix: w ones in every row and
every column, so every LED fires in w slots and every slot drives w LEDs.
A codebook is a deduplicated, canonically ordered list of such matrices for
one or more weights; its first signaling_count(M) (entry, level) pairs carry
data.

A matrix is identified by its cell bitmask, a Python int with bit r*L + c - 1
set for symbol c in row r: equality, hashing and deduplication compare these
ints, and the uint8 entry array is unpacked from the mask only when read.
Enumeration walks one cached lexicographic permutation table, the same
table detectors.murty_iter ranks assignments over, and builds each matrix once
from the first codeword set that sums to it: that set is its canonical
decomposition.
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
        if not comps:
            raise ValueError("a codeword matrix needs at least one component")
        L = comps[0].length
        key = 0
        for cw in comps:
            if cw.length != L:
                raise ValueError("component length mismatch")
            key |= cw.cells
        if not 1 <= len(comps) <= L - 1:
            raise ValueError(f"weight {len(comps)} outside 1..{L - 1}")
        # overlapping components collapse onto shared cells
        if key.bit_count() != len(comps) * L:
            raise ValueError("overlapping components: codewords must pairwise differ in every position")
        object.__setattr__(self, "key", key)

    @property
    def weight(self) -> int:
        return len(self.components)

    @property
    def L(self) -> int:
        return self.components[0].length

    @cached_property
    def entries(self) -> np.ndarray:
        e = _unpack_keys([self.key], self.L)[0]
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


def _unpack_keys(keys, L: int) -> np.ndarray:
    # (len(keys), L, L) uint8 cells of the given cell bitmasks, one unpack
    n = (L * L + 7) // 8
    buf = np.frombuffer(b"".join(k.to_bytes(n, "little") for k in keys), dtype=np.uint8)
    bits = np.unpackbits(buf.reshape(-1, n), axis=1, count=L * L, bitorder="little")
    return bits.reshape(-1, L, L)


def _disjoint_sets(w: int, allowed: int, compat: list[int]):
    # Ascending index tuples of w permutations from the bitmask `allowed`
    # that pairwise differ in every position, in lexicographic order;
    # compat[j] masks the higher-index permutations that differ from j
    # everywhere.
    while allowed:
        j = (allowed & -allowed).bit_length() - 1
        allowed &= allowed - 1
        if w == 1:
            yield (j,)
        else:
            for rest in _disjoint_sets(w - 1, allowed & compat[j], compat):
                yield (j,) + rest


def enumerate_weight_w(L: int, w: int) -> "Codebook":
    """All weight-w matrices built from w pairwise distance-L codewords.

    Distinct codeword sets can sum to the same matrix, so results are
    deduplicated on the matrix itself.  Sets are met in lexicographic order,
    so the first set that sums to a matrix is its canonical (lexicographically
    smallest) decomposition, and first-seen order is the canonical order.
    """
    if not 2 <= L <= ENUMERATION_MAX_L:
        raise ValueError(f"L must be in 2..{ENUMERATION_MAX_L}")
    if not 1 <= w <= L - 1:
        raise ValueError(f"w must be in 1..{L - 1}")
    table, perms = permutation_table(L)
    far = np.triu((table[:, None, :] != table[None, :, :]).all(axis=2), 1)
    compat = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
              for row in far]
    codewords = [Codeword(p) for p in perms]
    cells = [cw.cells for cw in codewords]
    first: dict[int, tuple[int, ...]] = {}
    for idx in _disjoint_sets(w, (1 << len(perms)) - 1, compat):
        first.setdefault(sum(cells[i] for i in idx), idx)  # disjoint, so sum is union
    entries = tuple(CodewordMatrix(tuple(codewords[i] for i in idx)) for idx in first.values())
    return Codebook(L=L, entries=entries, label=f"P({L},{len(entries)},w={w})")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Ordered collection of codeword matrices sharing one block length L."""

    L: int
    entries: tuple[CodewordMatrix, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("codebook must contain at least one entry")
        if any(cm.L != self.L for cm in self.entries):
            raise ValueError("entry size mismatch")
        if len({cm.key for cm in self.entries}) != len(self.entries):
            raise ValueError("duplicate matrix in codebook")

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def weights_present(self) -> tuple[int, ...]:
        return tuple(sorted({cm.weight for cm in self.entries}))

    def bits_per_block(self, M: int = 1) -> int:
        if M < 1:
            raise ValueError("M must be at least 1")
        return int(math.floor(math.log2(self.size * M)))

    def signaling_count(self, M: int = 1) -> int:
        """Number of (entry, level) pairs that carry data: the largest power of two."""
        return 2 ** self.bits_per_block(M)

    @cached_property
    def matrix_stack(self) -> np.ndarray:
        s = _unpack_keys([cm.key for cm in self.entries], self.L).astype(np.float64)
        s.setflags(write=False)
        return s

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array([cm.weight for cm in self.entries], dtype=np.int64)
        w.setflags(write=False)
        return w

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
            slots = [{} for _ in range(w)]
            for i in self.weight_class_indices(w).tolist():
                for slot, cw in zip(slots, self.entries[i].components):
                    slot.setdefault(cw.symbols, []).append(i)
            table[w] = tuple(MappingProxyType({p: tuple(ix) for p, ix in s.items()}) for s in slots)
        return MappingProxyType(table)

    def subset(self, indices, label: str = "") -> "Codebook":
        picked = tuple(self.entries[int(i)] for i in indices)
        return Codebook(L=self.L, entries=picked, label=label or self.label)


def combine_codebooks(parts: list[Codebook] | tuple[Codebook, ...], label: str = "") -> Codebook:
    """Union of per-weight codebooks in canonical order (weight, then components)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("no codebooks to combine")
    L = parts[0].L
    if any(p.L != L for p in parts):
        raise ValueError("codebooks must share the block length")
    entries = [cm for p in parts for cm in p.entries]
    entries.sort(key=lambda cm: (cm.weight, [c.symbols for c in cm.components]))
    return Codebook(L=entries[0].L, entries=tuple(entries), label=label)


def export_text(codebook: Codebook) -> str:
    """One line per entry: weight, then the component codewords as digit
    strings (comma-separated symbols for L >= 10)."""
    lines = []
    for cm in codebook.entries:
        comps = " ".join(str(c) for c in cm.components)
        lines.append(f"{cm.weight} {comps}")
    return "\n".join(lines) + "\n"


def import_text(text: str, label: str = "") -> Codebook:
    entries = []
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
        entries.append(CodewordMatrix.from_components(comps))
    if not entries:
        raise ValueError("no codebook entries found")
    return Codebook(L=entries[0].L, entries=tuple(entries), label=label)
