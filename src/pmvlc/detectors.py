"""Block detectors: coherent ML and three channel-blind soft-decision forms.

This module holds every decision rule of the package.  Each rule is written
once as a batch kernel over a leading block axis (the ``*_batch`` functions,
which the Monte Carlo harness calls), but for the two walks, whose per-block
step is what the benchmark's tracer counts.  bb_rows runs bb's greedy column
choice for a whole batch, so bb_detect is the member lookup of one block's
walk; iterative_rows ranks a batch's assignments, and iterative_sd_detect
walks and scores one block's row.  Each returns a DetectionResult, the
decision and its modelled work.  bf_sd_detect is bf on a batch of one.

All soft-decision (SD) detectors work on the sign-flipped observation
yhat = -Y, so a codeword's decision metric is the negated sum of received
values over its support; for a multiweight entry that equals the sum of the
per-component metrics because components never overlap.

* ml_detect_batch     argmin of ||Y - H a_m P_q||_F^2 over the received
                      means it is given (needs CSI), level-sliced per entry
* bf_detect_batch     exhaustive support-metric search over the codebook
* bb_detect           greedy level-by-level column selection (weight 1 only),
                      made per batch by bb_rows; bb_detect looks its result up
* iterative_sd_detect assignment-driven search: best assignment first, then
                      next-best assignments until one lands in the codebook;
                      every weight slot's walk (murty_iter) reads the block's
                      one row of rank_assignments, which ranks all L!
                      assignments of a slice of blocks at once, so L <= 6
* rc_detect_batch     repetition-coding baseline: the slot sum sliced to the
                      nearest level sum, as the symbol index (the bit label);
                      spatial modulation is ml over its own alphabet's means

The nearest-mean rules (ml, sm, rc) share one kernel, ml_detect_batch.
PAM levels are linear in m, so the means of one entry (for sm, one LED;
for rc, the one slot sum) lie on a line m U_q, and the nearest of them is
the received correlation with U_q sliced to the nearest level: one (B, Q)
matrix product per batch scores every entry at its best level, as a
unipolar PAM slicer does.  It works through the batch in row slices of
_SLICE_CELLS cells, in place in scratch arrays of that size, so a batch
allocates no large temporary and each matrix product stays small enough
for OpenBLAS to run it on the calling thread.

The blind rules pick an entry within a given weight class and nothing
else.  The weight class (the sent one under genie, else the joint rule of
classify_weight_batch) and the PAM level (estimate_intensity_batch) are side
decisions, which the harness (analysis._link) makes once per batch, the
level first: the block sum sliced by one scalar, gain_sum = sum(H).  The
joint rule takes that level and a reference gain matrix, both from the
link's channel knowledge (analysis.SimConfig.calibration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import repeat
from math import fsum
from operator import add
from typing import Iterator, NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .codebook import ENUMERATION_MAX_L, Codebook, permutation_cells, permutation_table
from .txcodec import PamConfig, pam_intensity


@dataclass(slots=True)
class DetectionResult:
    """Entry q (1-based; None for no decision) of weight class w, and the
    decoder's work."""

    q: int | None
    w: int
    iterations: int = 0
    op_count: int = 0


def _as_H(channel) -> np.ndarray:
    return channel.H if isinstance(channel, ChannelMatrix) else np.asarray(channel, dtype=np.float64)


def signal_stack(codebook: Codebook, pam: PamConfig) -> np.ndarray:
    """Transmit matrices a_m P_q of every (entry, level) pair.

    Ordered entry-major / level-minor, so row (q-1) M + (m-1) is pair
    (q, m) and the first codebook.signaling_count(M) rows are the pairs that
    carry data; row v carries label v.
    """
    levels = pam_intensity(np.arange(1, pam.M + 1)[None, :], pam.M,
                           codebook.weight_array[:, None])
    S = levels[:, :, None, None] * codebook.matrix_stack[:, None, :, :]
    return S.reshape(-1, codebook.L, codebook.L)


def received_means(codebook: Codebook, pam: PamConfig, channel) -> np.ndarray:
    """H a_m P_q for the signaling rows of signal_stack: row v is the
    noiseless received block of label v."""
    S = signal_stack(codebook, pam)[:codebook.signaling_count(pam.M)]
    return np.einsum("ij,kjl->kil", _as_H(channel), S)


def _best_support(Y: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Row of `stack` with the largest support sum (the smallest negated
    one) per block, ties to the lowest row: one matrix product per row slice
    of _SLICE_CELLS (rows, Q) cells into one scratch array, as ml_detect_batch."""
    Yf, S = Y.reshape(len(Y), -1), stack.reshape(len(stack), -1).T
    rows, slices = _row_slices(len(Y), len(stack))
    sums = np.empty((min(rows, len(Y)), len(stack)))
    out = np.empty(len(Y), dtype=np.intp)
    for sl in slices:
        out[sl] = np.argmax(np.matmul(Yf[sl], S, out=sums[:sl.stop - sl.start]), axis=1)
    return out


def estimate_intensity_batch(Y: np.ndarray, pam: PamConfig, gain_sum: float | None) -> np.ndarray:
    """Level index per block of Y (B, L, L) from the sum of all its cells.

    Every row of P_q has w ones and a_m = 2m / (w (M + 1)), so the cells of
    H a_m P_q sum to 2m / (M + 1) sum(H) for every entry, weight and level:
    the level is sum(Y) (M + 1) / (2 gain_sum), gain_sum being sum(H) (see
    analysis._link for its blind estimate).  Ties between neighboring levels
    resolve to the lower index, and the result is clipped to 1..M.  M = 1,
    and a zero gain_sum, which carries no level, return 1 without reading Y
    (as ml_detect_batch does for a zero-energy entry); at M > 1 a missing
    gain_sum raises ValueError.
    """
    if gain_sum is None and pam.M > 1:
        raise ValueError(f"level estimation at M = {pam.M} needs gain_sum, the channel's sum(H)")
    if pam.M == 1 or gain_sum == 0:
        return np.ones(len(Y), dtype=np.int64)
    x = np.einsum("bij->b", Y) * ((pam.M + 1) / (2.0 * gain_sum))
    base = np.floor(x)
    # midpoint ties fall to the lower level; the slack absorbs float error
    m = base + (x - base > 0.5 * (1.0 + 1e-9))
    return np.clip(m, 1, pam.M).astype(np.int64)


def classify_weight_batch(Y: np.ndarray, codebook: Codebook, pam: PamConfig, m: np.ndarray,
                          reference: np.ndarray) -> np.ndarray:
    """Joint weight decision for each received block in Y (B, L, L) at its
    level m (B,): decode each class blind, reconstruct each pick at that
    level through the reference gain matrix and keep the class with the
    smallest residual; equal residuals go to the lowest weight.  A one-weight
    book needs no decision.  The genie rule, the level and the reference are
    the harness's (analysis._link).
    """
    weights = codebook.weights_present
    if len(weights) == 1:
        return np.full(len(Y), weights[0], dtype=np.int64)
    # row q M + m - 1 is H_ref a_m P_q, bit for bit one block's matmul (not
    # einsum's rounding), for every row: a pick may lie past the signaling rows
    means = reference @ signal_stack(codebook, pam)
    residuals = np.empty((len(weights), len(Y)))
    # in row slices, as ml_detect_batch: no temporary grows with B
    for sl in _row_slices(len(Y), max(codebook.size, codebook.L ** 2))[1]:
        for k, w in enumerate(weights):
            idx = codebook.weight_class_indices(w)
            q = idx[_best_support(Y[sl], codebook.matrix_stack[idx])]
            residuals[k, sl] = ((Y[sl] - means[q * pam.M + m[sl] - 1]) ** 2).sum(axis=(1, 2))
    return np.asarray(weights, dtype=np.int64)[np.argmin(residuals, axis=0)]


# cells per row slice of ml_detect_batch's (rows, columns) arrays: each
# temporary is 128 KB, so every batch reuses the same heap memory instead of
# page-faulting in a fresh 0.5-1 MB array, and at L = 4 (16 values per
# block) a slice's product is at most 2**18 multiply-adds, where OpenBLAS
# still runs on the calling thread instead of waking workers against the
# harness's pool.
# Halving the slice (256 rows at Q = 32) lost two-thread throughput to GIL
# handoffs in a kernel-only measurement; doubling it ran slower on one thread.
# analysis.distance_spectrum bounds both its distances per slice and its
# difference values per part by it.
_SLICE_CELLS = 1 << 14


def _row_slices(B: int, width: int) -> tuple[int, list[slice]]:
    """Rows per slice and the slices of a (B, width) array, each slice at
    most _SLICE_CELLS cells and at least one row."""
    rows = max(1, _SLICE_CELLS // width)
    return rows, [slice(s, min(s + rows, B)) for s in range(0, B, rows)]


def ml_detect_batch(Y: np.ndarray, HS: np.ndarray, M: int) -> np.ndarray:
    """Index of the nearest received mean in HS for each block of Y (B, ...),
    ties to the lowest, as int64.  Trailing shapes are flattened, so
    (B, L, L) blocks and (B, n_rx) slots share it.

    HS is entry-major / level-minor with M PAM levels per entry: row
    q M + m - 1 is m U_q, where U_q = HS[q M] is entry q's level-1 mean; the
    last entry may carry fewer than M levels.  With e_q = ||U_q||^2 and
    u_q = <Y, U_q> / e_q, ||Y - m U_q||^2 = ||Y||^2 + e_q m (m - 2 u_q), a
    parabola in m, so entry q's best level is u_q rounded to the nearest
    level (half-way to the lower) and clipped to its range: one (B, Q)
    product and one argmin per batch, not a score per (entry, level).  An
    entry with e_q = 0 scores 0 at level 1.

    The product and the level slice run over row slices of _SLICE_CELLS
    (rows, Q) cells, in place in two scratch arrays, so no temporary grows
    with B; each row's arithmetic, and so its decision, is that of the
    whole-batch product.
    """
    U = HS[::M]
    U = U.reshape(len(U), -1)
    Q, d = U.shape
    Yf = Y.reshape(len(Y), d)
    e = np.einsum("qd,qd->q", U, U)
    V = (U / np.where(e > 0, e, 1.0)[:, None]).T
    top = np.minimum(M, len(HS) - M * np.arange(Q))
    rows, slices = _row_slices(len(Y), Q)
    u = np.empty((min(rows, len(Y)), Q))
    m = np.empty_like(u) if M > 1 else 1.0
    out = np.empty(len(Y), dtype=np.int64)
    for sl in slices:
        n = sl.stop - sl.start
        us = np.matmul(Yf[sl], V, out=u[:n])
        ms = m
        if M > 1:
            ms = np.subtract(us, 0.5, out=m[:n])
            np.ceil(ms, out=ms)
            np.clip(ms, 1, top, out=ms)
        # e m (m - 2u), in place
        us *= -2.0
        us += ms
        us *= ms
        us *= e
        q = np.argmin(us, axis=1)
        out[sl] = q if M == 1 else q * M + ms[np.arange(n), q].astype(np.int64) - 1
    return out


def ml_op_count(candidates: int, L: int) -> int:
    """Modelled work of one exhaustive ML decision, the paper's count: an
    L x L residual per candidate.  It models that search, not the work of
    ml_detect_batch's level-sliced kernel."""
    return candidates * L ** 2


def bf_detect_batch(Y: np.ndarray, codebook: Codebook, w):
    """Blind exhaustive search per block of Y (B, L, L): the smallest
    negated support sum within the block's weight class w (B,), as 0-based
    entry indices.
    """
    w = np.asarray(w)
    picks = np.empty(len(Y), dtype=np.int64)
    decided = 0
    for wv in codebook.weights_present:
        sel = np.flatnonzero(w == wv)
        decided += len(sel)
        if len(sel) == 0:
            continue
        idx = codebook.weight_class_indices(wv)
        picks[sel] = idx[_best_support(Y[sel], codebook.matrix_stack[idx])]
    if decided != len(Y):
        raise ValueError(f"weights {np.unique(w)} not all in codebook")
    return picks


def bf_op_count(codebook: Codebook, w) -> int:
    """Modelled work of blind exhaustive search, summed over the decided
    weights w (an int or an array, one per block): the w L additions of
    each entry's metric in class w."""
    w = np.asarray(w)
    return int(sum((w == v).sum() * len(codebook.weight_class_indices(v)) * v * codebook.L
                   for v in codebook.weights_present))


def bf_sd_detect(Y: np.ndarray, codebook: Codebook, w: int) -> DetectionResult:
    """Blind exhaustive search on one block of weight class w; see
    bf_detect_batch.  op_count is bf_op_count."""
    picks = bf_detect_batch(np.asarray(Y, dtype=np.float64)[None], codebook, [w])
    return DetectionResult(q=int(picks[0]) + 1, w=w, op_count=bf_op_count(codebook, w))


# blocks per slice of the per-batch tables: whole-batch tables raise peak
# RSS, and a tolist() call per block costs more than most walks
_SLICE_BLOCKS = 256


def bb_rows(Y: np.ndarray, codebook: Codebook) -> Iterator[tuple[int, ...]]:
    """bb's greedy level-by-level column selection for a batch Y (B, L, L):
    per block, the column chosen in each row (1-based), _SLICE_BLOCKS blocks
    at a time.

    Level k scores each free column c by the path cost so far, yhat[k, c]
    and the sum of the free columns below once c is taken; all but
    yhat[k, c] - sum(yhat[k+1:, c]) is common to every c, so each level is
    one argmin of that over the slice, the taken columns set to +inf (ties
    to the lowest c).  With the sum down the rows in ascending order, each
    walk is bit for bit the node-by-node search.  Raises ValueError for a
    codebook with entries of weight above 1 once rows are asked for, and,
    when its slice is reached, for a block that is not finite or whose
    scores overflow (a free column must always score below the taken ones).
    """
    if codebook.weights_present != (1,):
        raise ValueError("branch-and-bound decoding applies to weight-1 codebooks only")
    Y = np.asarray(Y, dtype=np.float64)
    L = Y.shape[-1]
    for s in range(0, len(Y), _SLICE_BLOCKS):
        yhat = -Y[s:s + _SLICE_BLOCKS]
        if not np.isfinite(yhat).all():
            raise ValueError("received block must be finite")
        score = yhat.copy()
        for k in range(L - 1):
            score[:, k] -= reduce(add, yhat[:, k + 1:].swapaxes(0, 1))
        if not np.isfinite(score).all():
            raise ValueError("column sums of the received block overflow")
        n = np.arange(len(yhat))
        cols = np.empty((len(yhat), L), dtype=np.intp)
        for k in range(L):
            cols[:, k] = c = np.argmin(score[:, k], axis=1)
            score[n, :, c] = np.inf
        yield from map(tuple, (cols + 1).tolist())


@cache
def _bb_ops(L: int) -> int:
    return sum(f * (1 + (f - 1) ** 2) for f in range(1, L + 1))


def bb_detect(perm: tuple[int, ...], codebook: Codebook) -> DetectionResult:
    """The decision of one block's greedy walk (its columns from bb_rows) in
    a weight-1 codebook.

    op_count models the node-by-node bound: f (1 + (f-1)^2) additions at a
    level with f free columns, 60 in all at L = 4.  One node survives per
    level, so the walk may end outside a restricted codebook; that outcome
    is no decision (q None).
    """
    hit = codebook.slot_table[1][0].get(perm)
    return DetectionResult(q=None if hit is None else hit[0] + 1, w=1, iterations=codebook.L,
                           op_count=_bb_ops(codebook.L))


class Assignment(NamedTuple):
    """Column choice per row (1-based) and the summed cost."""

    perm: tuple[int, ...]
    cost: float


def rank_assignments(costs) -> tuple[np.ndarray, np.ndarray]:
    """Rank every assignment of each square cost matrix in costs (..., n, n).

    Each assignment is a row of codebook.permutation_table(n), so one gather
    and one sum along the last axis cost all n!: the gather reads each
    flattened matrix at the cached codebook.permutation_cells(n).  Returns
    (order, total), both (..., n!): total[..., i] is table row i's cost, and
    order, a stable argsort of total, lists the rows by (cost, column
    tuple), the order of Murty's k-best ranking (Operations Research 16,
    1968), as the table is lexicographic.  Raises ValueError for non-square,
    empty or non-finite matrices, and above ENUMERATION_MAX_L columns.
    """
    C = np.asarray(costs, dtype=np.float64)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2] or C.shape[-1] < 1:
        raise ValueError("cost matrix must be square and nonempty")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix must be finite")
    n = C.shape[-1]
    if n > ENUMERATION_MAX_L:
        raise ValueError(f"ranking needs at most {ENUMERATION_MAX_L} columns, got {n}")
    total = C.reshape(*C.shape[:-2], n * n)[..., permutation_cells(n)].sum(axis=-1)
    return np.argsort(total, axis=-1, kind="stable"), total


class IterativeRow(NamedTuple):
    """One block's row of iterative_rows: order and total, its row of
    rank_assignments over perms (permutation_table(n)[1]), and Y, read from
    the batch slice only when asked for (the exhaustive fallback).  perms
    and batch are shared by a slice's rows."""

    perms: tuple[tuple[int, ...], ...]
    order: list[int]
    total: list[float]
    batch: np.ndarray
    index: int

    @property
    def Y(self) -> np.ndarray:
        return self.batch[self.index]


def iterative_rows(Y: np.ndarray) -> Iterator[IterativeRow]:
    """iterative_sd_detect's tables for a batch Y (B, L, L), one IterativeRow
    per block, built _SLICE_BLOCKS blocks at a time: one ranking of every
    assignment of -Y, which every weight slot's walk and the scoring of
    multiweight candidates share.  Raises ValueError above ENUMERATION_MAX_L
    columns, and for a non-finite block when its slice is reached."""
    Y = np.asarray(Y, dtype=np.float64)
    for s in range(0, len(Y), _SLICE_BLOCKS):
        y = Y[s:s + _SLICE_BLOCKS]
        order, total = rank_assignments(-y)
        # tuple.__new__ fills a row from its fields in C, as _make does
        # without the Python-level call that is a third of a row's cost
        yield from map(tuple.__new__, repeat(IterativeRow), zip(
            repeat(permutation_table(y.shape[-1])[1]), order.tolist(), total.tolist(),
            repeat(y), range(len(y))))


def murty_iter(ranked: IterativeRow) -> Iterator[Assignment]:
    """Yield every assignment of one block by (cost, column tuple), walking
    its ranked row; the ranking itself is rank_assignments'."""
    perms, total = ranked.perms, ranked.total
    for i in ranked.order:
        yield tuple.__new__(Assignment, (perms[i], total[i]))  # as in iterative_rows


def _walk_until_member(ranked: IterativeRow, members, e_max: int):
    # Enumerate assignments from best cost upward; stop at the first codebook
    # member.  Returns (perm, tries) with perm None if e_max ran out.
    for tries, a in enumerate(murty_iter(ranked), 1):
        if a.perm in members:
            return a.perm, tries
        if tries >= e_max:
            break
    return None, tries


@lru_cache(maxsize=64)
def _walk_plan(codebook: Codebook, w: int, e_max: int | None):
    # iterative_sd_detect's slot table, walk budget (default: class size),
    # modelled work per try (one O(L^3) Hungarian solve and an L-step member
    # check, the paper's decoder) and each entry's components, the ranking
    # rows its multiweight score sums, once per class and budget.
    if w not in codebook.weights_present:
        raise ValueError(f"weight {w} not in codebook")
    idx = codebook.weight_class_indices(w)
    budget = e_max if e_max is not None else len(idx)
    if budget < 1:
        raise ValueError("e_max must be at least 1")
    parts = dict(zip(idx.tolist(), map(tuple, codebook.components[idx, :w].tolist())))
    return codebook.slot_table[w], budget, codebook.L ** 3 + codebook.L, parts


def iterative_sd_detect(block: IterativeRow, codebook: Codebook, w: int,
                        e_max: int | None = None) -> DetectionResult:
    """Assignment-driven blind detection within weight class w, on one
    block's row of iterative_rows.

    Weight 1: solve the assignment problem on yhat; if the optimum is not a
    codebook member, take next-best assignments in cost order until one is.
    An assignment's cost is its entry's support metric, and a dry walk falls
    back to bf, so at weight 1 iterative decides as bf does on every block,
    for any L and any restricted book, up to exact metric ties (the walk
    breaks them by column tuple, bf by entry order).
    Multiweight entries: run the same walk against each component position's
    codebook; every row whose component matches a walk's winner becomes a
    candidate, scored by its support metric: the fsum of its components'
    ranking totals, as components never overlap; ties to the lowest entry.
    Every walk and every score reads the block's one ranking.  When the walk
    budget e_max (default: class size) runs dry the detector falls back to
    exhaustive search within the class (bf_sd_detect).
    """
    slots, budget, try_ops, parts = _walk_plan(codebook, w, e_max)
    q, candidates = None, ()
    if w == 1:
        perm, iterations = _walk_until_member(block, slots[0], budget)
        if perm is not None:
            q = slots[0][perm][0] + 1
    else:
        iterations, candidates = 0, set()
        for slot in slots:
            perm, tries = _walk_until_member(block, slot, budget)
            iterations += tries
            if perm is not None:
                candidates.update(slot[perm])
        if candidates:
            q = min(sorted(candidates), key=lambda i: fsum(block.total[j] for j in parts[i])) + 1
    ops = iterations * try_ops + len(candidates) * w * codebook.L

    if q is None:
        res = bf_sd_detect(block.Y, codebook, w)
        res.iterations = iterations
        res.op_count += ops
        return res
    return DetectionResult(q=q, w=w, iterations=iterations, op_count=ops)


# ---------------------------------------------------------------------------
# Single-stream baselines at matched mean optical power.  Both transmit once
# per slot: repetition drives all L LEDs with one PAM symbol, spatial
# modulation drives a single LED selected by the leading bits.  Each
# config's `signals` stacks the slot vector of every symbol: row v is the
# symbol whose big-endian label is v.

@dataclass(frozen=True)
class RcConfig:
    L: int = 4
    M: int = 16

    @property
    def bits(self) -> int:
        # M = 1 would carry no bits, and a zero-bit link has no BER
        b = (self.M).bit_length() - 1
        if self.M < 2 or 2 ** b != self.M:
            raise ValueError("M must be a power of two, at least 2")
        return b

    def level(self, m: int) -> float:
        # Weight-L scaling keeps the slot total at unit mean across levels.
        return pam_intensity(m, self.M, self.L)

    @property
    def signals(self) -> np.ndarray:
        """(M, L): row v drives every LED at level v + 1."""
        levels = self.level(np.arange(1, self.M + 1))
        return np.repeat(levels[:, None], self.L, axis=1)


@dataclass(frozen=True)
class SmConfig:
    L: int = 4
    M: int = 4

    @property
    def bits(self) -> int:
        lb = (self.L).bit_length() - 1
        mb = (self.M).bit_length() - 1
        if 2 ** lb != self.L or 2 ** mb != self.M:
            raise ValueError("L and M must be powers of two")
        return lb + mb

    def level(self, m: int) -> float:
        return pam_intensity(m, self.M, 1)

    @property
    def signals(self) -> np.ndarray:
        """(L M, L): row k M + (m - 1) drives LED k alone at level m."""
        levels = self.level(np.arange(1, self.M + 1))
        return (np.eye(self.L)[:, None, :] * levels[None, :, None]).reshape(-1, self.L)


def rc_detect_batch(y: np.ndarray, channel, config: RcConfig) -> np.ndarray:
    """Sum the photodiode outputs of each row of y (B, n_rx) and slice it to
    the nearest known level sum, ties to the lowest; returns the symbol
    index, which is also the bit label.  The level sums level(m) sum(H) are
    linear in m, so they are ml_detect_batch's means of one scalar entry."""
    levels = config.level(np.arange(1, config.M + 1)) * float(_as_H(channel).sum())
    return ml_detect_batch(y.sum(axis=1)[:, None], levels[:, None], config.M)
