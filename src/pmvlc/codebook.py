"""Construction and indexing of single- and multiweight permutation codebooks.

A length-L codeword is a permutation of 1..L and maps to an L x L 0/1 matrix
with a single one per row.  Summing w such matrices whose codewords pairwise
differ in every position gives a weight-w matrix: w ones in every row and
every column, so every LED fires in w slots and every slot drives w LEDs.
A codebook is a deduplicated, canonically ordered list of such matrices for
one or more weights, together with the block bit mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

ENUMERATION_MAX_L = 6  # exhaustive search guard


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

    def __str__(self) -> str:
        return "".join(str(x) for x in self.symbols)

    @classmethod
    def parse(cls, text: str) -> "Codeword":
        return cls(tuple(int(ch) for ch in text.strip()))


def _perm_matrix(symbols: tuple[int, ...]) -> np.ndarray:
    L = len(symbols)
    m = np.zeros((L, L), dtype=np.uint8)
    m[np.arange(L), np.asarray(symbols) - 1] = 1
    return m


def codeword_to_matrix(codeword: Codeword | tuple[int, ...]) -> "CodewordMatrix":
    """Weight-1 matrix of a codeword: row i has its single one at column c_i."""
    cw = codeword if isinstance(codeword, Codeword) else Codeword(tuple(codeword))
    return CodewordMatrix.from_components((cw,))


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


def _lex_min_matching_in(support: np.ndarray) -> tuple[int, ...]:
    # Lexicographically smallest perfect matching (as a column-per-row tuple,
    # 0-based) inside a 0/1 support matrix; backtracking over rows in order.
    L = support.shape[0]
    cols_used = [False] * L
    pick = [0] * L

    def place(row: int) -> bool:
        if row == L:
            return True
        for col in range(L):
            if support[row, col] and not cols_used[col]:
                cols_used[col] = True
                pick[row] = col
                if place(row + 1):
                    return True
                cols_used[col] = False
        return False

    if not place(0):
        raise ValueError("support admits no perfect matching")
    return tuple(pick)


def _canonical_components(entries: np.ndarray) -> tuple[Codeword, ...]:
    # Peel lexicographically smallest permutations off the support one at a
    # time.  A w-regular 0/1 matrix always splits into w disjoint permutation
    # matrices, and the smallest achievable first component fixes the
    # lexicographically smallest sorted decomposition overall.
    remaining = entries.astype(np.uint8).copy()
    comps = []
    while remaining.any():
        cols = _lex_min_matching_in(remaining)
        comps.append(Codeword(tuple(c + 1 for c in cols)))
        remaining[np.arange(remaining.shape[0]), cols] -= 1
    return tuple(comps)


@dataclass(frozen=True, eq=False)
class CodewordMatrix:
    """A weight-w 0/1 block: the disjoint sum of w permutation matrices.

    ``components`` holds the stored decomposition, lexicographically smallest
    among all decompositions of ``entries``; two objects are equal exactly
    when their entry matrices are equal.
    """

    entries: np.ndarray
    weight: int
    components: tuple[Codeword, ...]

    def __post_init__(self):
        e = np.ascontiguousarray(np.asarray(self.entries, dtype=np.uint8))
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        L = e.shape[0]
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be square")
        if not np.isin(e, (0, 1)).all():
            raise ValueError("entries must be 0/1")
        if not (1 <= self.weight <= L - 1):
            raise ValueError(f"weight {self.weight} outside 1..{L - 1}")
        if (e.sum(axis=0) != self.weight).any() or (e.sum(axis=1) != self.weight).any():
            raise ValueError("every row and column must sum to the weight")
        if len(self.components) != self.weight:
            raise ValueError("component count must equal the weight")
        acc = np.zeros((L, L), dtype=np.uint8)
        for cw in self.components:
            if cw.length != L:
                raise ValueError("component length mismatch")
            acc += _perm_matrix(cw.symbols)
        if not np.array_equal(acc, e):
            raise ValueError("components do not sum to the entry matrix")
        for i, a in enumerate(self.components):
            for b in self.components[i + 1:]:
                if hamming_distance(a, b) != L:
                    raise ValueError("components must pairwise differ in every position")

    @property
    def L(self) -> int:
        return self.entries.shape[0]

    @property
    def key(self) -> bytes:
        return self.entries.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, CodewordMatrix) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @classmethod
    def from_components(cls, codewords: tuple[Codeword, ...]) -> "CodewordMatrix":
        cws = tuple(cw if isinstance(cw, Codeword) else Codeword(tuple(cw)) for cw in codewords)
        L = cws[0].length
        acc = np.zeros((L, L), dtype=np.uint8)
        for cw in cws:
            acc += _perm_matrix(cw.symbols)
        if acc.max() > 1:
            raise ValueError("overlapping components: codewords must pairwise differ in every position")
        return cls(entries=acc, weight=len(cws), components=_canonical_components(acc))

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "CodewordMatrix":
        e = np.asarray(entries, dtype=np.uint8)
        w = int(e.sum(axis=1)[0])
        return cls(entries=e, weight=w, components=_canonical_components(e))


def enumerate_weight_w(L: int, w: int) -> "Codebook":
    """All weight-w matrices built from w pairwise distance-L codewords.

    Distinct codeword sets can sum to the same matrix, so results are
    deduplicated on the matrix itself; each survivor stores its canonical
    (lexicographically smallest) decomposition, and entries are sorted by
    that decomposition.
    """
    if not 2 <= L <= ENUMERATION_MAX_L:
        raise ValueError(f"L must be in 2..{ENUMERATION_MAX_L}")
    if not 1 <= w <= L - 1:
        raise ValueError(f"w must be in 1..{L - 1}")
    perms = sorted(permutations(range(1, L + 1)))
    if w == 1:
        entries = [CodewordMatrix.from_components((Codeword(p),)) for p in perms]
        return Codebook(L=L, entries=tuple(entries), label=f"P({L},{len(entries)},w=1)")

    n = len(perms)
    compat = [0] * n  # bitmask of higher-index perms at distance L
    for i in range(n):
        mask = 0
        for j in range(i + 1, n):
            if all(a != b for a, b in zip(perms[i], perms[j])):
                mask |= 1 << j
        compat[i] = mask

    seen: dict[bytes, np.ndarray] = {}

    def grow(chosen: list[int], allowed: int) -> None:
        if len(chosen) == w:
            acc = np.zeros((L, L), dtype=np.uint8)
            for idx in chosen:
                acc += _perm_matrix(perms[idx])
            seen.setdefault(acc.tobytes(), acc)
            return
        rest = allowed
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            grow(chosen + [j], allowed & compat[j])

    for i in range(n):
        grow([i], compat[i])

    matrices = [CodewordMatrix.from_entries(m) for m in seen.values()]
    matrices.sort(key=lambda cm: tuple(c.symbols for c in cm.components))
    return Codebook(L=L, entries=tuple(matrices), label=f"P({L},{len(matrices)},w={w})")


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
        keys = set()
        for cm in self.entries:
            if cm.L != self.L:
                raise ValueError("entry size mismatch")
            if cm.key in keys:
                raise ValueError("duplicate matrix in codebook")
            keys.add(cm.key)

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
        s = np.stack([cm.entries for cm in self.entries]).astype(np.float64)
        s.setflags(write=False)
        return s

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array([cm.weight for cm in self.entries], dtype=np.int64)
        w.setflags(write=False)
        return w

    def weight_class_indices(self, w: int) -> np.ndarray:
        return np.flatnonzero(self.weight_array == w)

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
    entries.sort(key=lambda cm: (cm.weight, tuple(c.symbols for c in cm.components)))
    return Codebook(L=L, entries=tuple(entries), label=label)


def bits_to_entry(bits, codebook: Codebook, M: int = 1) -> tuple[int, int]:
    """Map a bit block to (q, m), both 1-based; level index m varies fastest."""
    width = codebook.bits_per_block(M)
    bits = tuple(int(b) for b in bits)
    if len(bits) != width:
        raise ValueError(f"expected {width} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index // M + 1, index % M + 1


def entry_to_bits(q: int, m: int, codebook: Codebook, M: int = 1) -> tuple[int, ...]:
    """Inverse of bits_to_entry; rejects pairs outside the signaling subset."""
    width = codebook.bits_per_block(M)
    if not 1 <= q <= codebook.size:
        raise ValueError(f"q={q} outside 1..{codebook.size}")
    if not 1 <= m <= M:
        raise ValueError(f"m={m} outside 1..{M}")
    index = (q - 1) * M + (m - 1)
    if index >= 2 ** width:
        raise ValueError(f"(q={q}, m={m}) is outside the signaling subset")
    return tuple((index >> k) & 1 for k in reversed(range(width)))


def export_text(codebook: Codebook) -> str:
    """One line per entry: weight, then the component codewords as digit strings."""
    lines = []
    for cm in codebook.entries:
        comps = " ".join(str(c) for c in cm.components)
        lines.append(f"{cm.weight} {comps}")
    return "\n".join(lines) + "\n"


def import_text(text: str, label: str = "") -> Codebook:
    entries = []
    L = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        w = int(fields[0])
        comps = tuple(Codeword.parse(f) for f in fields[1:])
        if len(comps) != w:
            raise ValueError(f"line {line!r}: weight {w} but {len(comps)} codewords")
        if L is None:
            L = comps[0].length
        entries.append(CodewordMatrix.from_components(comps))
    if not entries:
        raise ValueError("no codebook entries found")
    return Codebook(L=L, entries=tuple(entries), label=label)
