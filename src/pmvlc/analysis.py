"""Error-rate analysis: Gaussian tail helpers, the distance spectrum of an
alphabet's received means, the pairwise union bound over it, and a
reproducible Monte Carlo BER harness.

Q is the standard library's math.erfc, so nothing here needs scipy.  The
spectrum holds each distinct squared distance once, with its pair count and
summed bit distance, so the union bound evaluates Q once per distinct
distance and never holds the (n, n) pairs.

The harness only draws signal indices, sends their received means through
Gaussian noise, decodes through a detector from pmvlc.detectors and counts
bit errors and the detector's modelled op counts; every decision rule and
op model lives in that module.

Reproducibility contract: a record depends only on (master seed, scheme,
detector, grid index, batch index).  Batches are fixed-size and each seeds
its own generator from that tuple.  The pool runs batches, not points (see
monte_carlo_ber): the workers go round robin over the points, but each
point runs its batches 0, 1, ... one at a time and stops at the first one
after which the cumulative stopping rule holds, so no batch is computed and
dropped, and the output is byte-identical for any worker count.

Memory is stable from batch to batch: each worker receives all of its
batches into one buffer, and the coherent and bf kernels work in fixed-size
row slices, so a steady-state batch page-faults a few times at most instead
of hundreds.
"""

from __future__ import annotations

import math
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Callable, Iterator

import numpy as np

from . import detectors
from .channel import ChannelMatrix, fixture_h02, n0_for_bits
from .codebook import Codebook
from .detectors import (
    RcConfig,
    SmConfig,
    _as_H,
    bb_detect,
    bb_rows,
    bf_detect_batch,
    bf_op_count,
    classify_weight_batch,
    estimate_intensity_batch,
    iterative_rows,
    iterative_sd_detect,
    ml_detect_batch,
    ml_op_count,
    rc_detect_batch,
    received_means,
)
from .txcodec import PamConfig

BATCH_BLOCKS = 4096

_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def qfunc(r):
    """Standard normal tail probability, Q(r) = P(Z > r), from math.erfc: one
    Python call per element, so large callers pass only distinct arguments."""
    return 0.5 * _erfc(np.asarray(r, dtype=np.float64) / np.sqrt(2.0))


def pair_tail(d2, n0):
    """Q(sqrt(d2 / 2 n0)): the probability that noise of variance n0/2 per
    element carries a received mean past the midpoint towards a mean at
    squared distance d2.  The one Q term of the union bound."""
    return qfunc(np.sqrt(d2 / (2.0 * n0)))


@dataclass(frozen=True)
class BoundCurve:
    scheme: str
    ebn0_db: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values)
        if not (np.isfinite(v).all() and (v >= 0).all()):
            raise ValueError("bound values must be finite and nonnegative")
        if (np.diff(v) > 1e-12).any():
            raise ValueError("bound must be nonincreasing in Eb/N0")


def bit_distance(a, b) -> np.ndarray:
    """Number of differing bits between integer labels a and b."""
    return np.bitwise_count(np.bitwise_xor(a, b))


def distance_spectrum(means) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance spectrum of an alphabet whose row v carries label v.

    Returns the distinct squared distances ||means[i] - means[j]||^2 over the
    unordered pairs i < j, ascending, each the direct sum
    ((means[i] - means[j]) ** 2).sum(); how many pairs have each; and the
    bit distance of those pairs' labels, summed.  Trailing axes are
    flattened, so (n, L, L) blocks and (n, n_rx) vectors share it.

    The upper triangle is walked in _spectrum_slices: slices of whole rows,
    each at most _SLICE_CELLS distances, whose differences are summed a few
    rows at a time into one scratch array of at most _SLICE_CELLS values, so
    neither grows with the d values of a pair.  A slice's counts at
    distances the spectrum already holds are added in place; its other
    distances wait in a pending list, which is folded into the spectrum only
    once it holds more distances than the spectrum does, and once at the
    end.  So no slice copies the whole spectrum, and memory follows the
    number of distinct distances, not n^2.
    """
    X = np.asarray(means, dtype=np.float64).reshape(len(means), -1)
    (n, d), labels = X.shape, np.arange(len(X))
    cells = detectors._SLICE_CELLS
    # one slice's distances and one part's differences, each reused: fresh
    # arrays per slice would be page-faulted in again each time
    sums_buf = np.empty(min(max(cells, n), n * n))
    diff_buf = np.empty(min(max(cells, n * d), n * n * d))
    d2, counts, weights = np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pending, waiting = [], 0
    for sl, parts in _spectrum_slices(n, d, cells):
        cols = n - sl.start
        sums = sums_buf[:(sl.stop - sl.start) * cols].reshape(-1, cols)
        for p in parts:
            # a contiguous (rows, cols, d) view, so each pair's sum over d is
            # numpy's pairwise sum of d contiguous values, whatever the part
            diff = np.subtract(X[p, None, :], X[None, sl.start:, :],
                               out=diff_buf[:(p.stop - p.start) * cols * d].reshape(-1, cols, d))
            np.square(diff, out=diff)
            np.sum(diff, axis=2, out=sums[p.start - sl.start:p.stop - sl.start])
        upper = labels[None, sl.start:] > labels[sl, None]
        u, inv = np.unique(sums[upper], return_inverse=True)
        c = np.bincount(inv)
        bits = bit_distance(labels[sl, None], labels[None, sl.start:])[upper]
        w = np.bincount(inv, bits).astype(np.int64)
        pos = np.searchsorted(d2, u)
        held = pos < len(d2)
        held[held] = d2[pos[held]] == u[held]
        counts[pos[held]] += c[held]
        weights[pos[held]] += w[held]
        new = ~held
        pending.append((u[new], c[new], w[new]))
        waiting += len(pending[-1][0])
        if waiting > len(d2):
            (d2, counts, weights), pending, waiting = _fold((d2, counts, weights), pending), [], 0
    return _fold((d2, counts, weights), pending) if waiting else (d2, counts, weights)


def _spectrum_slices(n: int, d: int, cells: int) -> Iterator[tuple[slice, list[slice]]]:
    """distance_spectrum's walk of the upper triangle of n signals with d
    values each: row slices [s, s + r) against columns s.., with
    r = cells // (n - s) (at least one), so rows grow as the columns left
    shrink; and each slice's parts, runs of cells // ((n - s) d) rows (at
    least one), whose differences hold at most `cells` values unless one
    row alone holds more."""
    s = 0
    while s < n:
        stop = s + min(n - s, max(1, cells // (n - s)))
        step = max(1, cells // ((n - s) * d))
        yield slice(s, stop), [slice(a, min(a + step, stop)) for a in range(s, stop, step)]
        s = stop


def _fold(spectrum, pending) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the pending (distances, counts, weights) triples, none of whose
    # distances the spectrum holds, summed per distance (whole numbers, so
    # exactly in any order) and inserted into the spectrum in order
    u, inv = np.unique(np.concatenate([p[0] for p in pending]), return_inverse=True)
    sums = [np.bincount(inv, np.concatenate([p[k] for p in pending]), len(u)).astype(np.int64)
            for k in (1, 2)]
    pos = np.searchsorted(spectrum[0], u)
    return tuple(np.insert(a, pos, b) for a, b in zip(spectrum, (u, *sums)))


def ber_union_bound(codebook: Codebook, pam: PamConfig, H, ebn0_grid,
                    scheme: str = "") -> BoundCurve:
    """Union bound on BER: average pairwise error weighted by bit distance.

    Each term uses the received means the simulated receiver sees, so the
    bound is directly comparable with it at the same noise density.  Over
    the distance spectrum, each grid point costs one Q per distinct squared
    distance d_k: 2 sum_k w_k Q(sqrt(d_k / 2 N0)) / (n bits), w_k being the
    summed bit distance of the unordered pairs at d_k.
    """
    bits = codebook.bits_per_block(pam.M)
    n0s = [n0_for_bits(db, bits) for db in ebn0_grid]  # checks every point first
    d2, _, weights = distance_spectrum(received_means(codebook, pam, H))  # 2**bits means
    values = [float(2.0 * np.sum(weights * pair_tail(d2, n0)) / (2 ** bits * bits)) for n0 in n0s]
    return BoundCurve(scheme=scheme, ebn0_db=tuple(float(x) for x in ebn0_grid),
                      values=tuple(values))


@dataclass(frozen=True)
class BerRecord:
    scheme: str
    detector: str
    ebn0_db: float
    ber: float
    bit_errors: int
    bits: int
    blocks: int
    seed: int
    ops: int = 0  # modelled detector work summed over the blocks; not in the CSV


DETECTOR_NAMES = ("ml", "bf", "iterative", "bb", "rc", "sm", "guess")


@dataclass
class SimConfig:
    """Everything one BER sweep needs, already resolved to objects.

    Each field's default is the library default, and __post_init__ is the
    one check of each setting.  calibration, "blind" or "csi", is the blind
    detectors' channel knowledge (see _link).  Each Eb/N0 point must give a
    noise density at the link's bits (n0_for_bits).  rc and sm default to
    the library sizes at the channel's LED count.
    """

    scheme: str
    detector: str
    ebn0_grid: tuple[float, ...]
    channel: ChannelMatrix | np.ndarray
    codebook: Codebook | None = None
    pam: PamConfig = field(default_factory=PamConfig)
    rc: RcConfig | None = None
    sm: SmConfig | None = None
    errors_target: int = 200
    block_cap: int = 10_000_000
    seed: int = 0
    weight_mode: str = "genie"
    calibration: str = "blind"
    e_max: int | None = None

    def __post_init__(self):
        if self.detector not in DETECTOR_NAMES:
            raise ValueError(f"unknown detector {self.detector!r}")
        L = _as_H(self.channel).shape[1]
        if self.detector in ("rc", "sm"):
            if self.detector == "rc" and self.rc is None:
                self.rc = RcConfig(L=L)
            if self.detector == "sm" and self.sm is None:
                self.sm = SmConfig(L=L)
            baseline = self.rc if self.detector == "rc" else self.sm
            if baseline.L != L:
                raise ValueError(f"{self.detector} L = {baseline.L}, but the channel has {L} LEDs")
            try:
                bits = baseline.bits  # raises for sizes that give no whole, positive bit count
            except ValueError as exc:
                raise ValueError(f"{self.detector} M = {baseline.M}: {exc}") from None
        elif self.codebook is None:
            raise ValueError(f"detector {self.detector!r}: coded detectors need a codebook")
        elif self.codebook.L != L:
            raise ValueError(f"codebook L = {self.codebook.L}, but the channel has {L} LEDs")
        elif self.detector == "bb" and self.codebook.weights_present != (1,):
            raise ValueError("bb detector requires a weight-1 codebook")
        else:
            bits = self.codebook.bits_per_block(self.pam.M)
        if len(self.ebn0_grid) == 0:
            raise ValueError("empty Eb/N0 grid")
        for db in self.ebn0_grid:
            n0_for_bits(db, bits)
        if (np.diff(self.ebn0_grid) <= 0).any():
            raise ValueError("Eb/N0 grid must be strictly ascending")
        for key in ("errors_target", "block_cap", "e_max"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.weight_mode not in ("genie", "joint"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        if not isinstance(self.calibration, str) or self.calibration not in ("blind", "csi"):
            raise ValueError(f"calibration must be blind or csi, not {self.calibration!r}")


def _batch_rng(config: SimConfig, point_idx: int, batch_idx: int) -> np.random.Generator:
    ident = zlib.crc32(f"{config.scheme}|{config.detector}".encode())
    ss = np.random.SeedSequence(entropy=(config.seed, ident),
                                spawn_key=(point_idx, batch_idx))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class _Link:
    """One simulated link: the received mean of every signal index, the bits
    each index carries and the detector, which maps (received blocks, sent
    indices, batch rng) to decided indices, -1 where it makes no decision,
    and the op_count those decisions sum to (0 for rc, sm and guess)."""

    means: np.ndarray
    bits: int
    decode: Callable


def _decisions(results):
    # the 0-based entry of each block's DetectionResult (-1 for none) and
    # their summed op_count
    q, ops = [], 0
    for r in results:
        q.append(-1 if r.q is None else r.q - 1)
        ops += r.op_count
    return np.array(q, dtype=np.int64), ops


def _link(config: SimConfig) -> _Link:
    H = _as_H(config.channel)
    det = config.detector
    if det in ("rc", "sm"):
        cfg = config.rc if det == "rc" else config.sm
        means = cfg.signals @ H.T  # sm is ml over its own alphabet
        return _Link(means, cfg.bits, lambda Y, tx, rng: (
            rc_detect_batch(Y, H, cfg) if det == "rc" else ml_detect_batch(Y, means, cfg.M), 0))

    cb, pam = config.codebook, config.pam
    HS, bits = received_means(cb, pam, H), cb.bits_per_block(pam.M)
    if det == "ml":
        # scores only the 2**bits signaling means
        return _Link(HS, bits, lambda Y, tx, rng: (ml_detect_batch(Y, HS, pam.M),
                                                   len(Y) * ml_op_count(len(HS), cb.L)))
    if det == "guess":
        return _Link(HS, bits, lambda Y, tx, rng: (rng.integers(len(HS), size=len(tx)), 0))

    # the blind decoders pick an entry within a weight class; the class (the
    # sent one under genie, else the joint rule) and the level are side
    # decisions, each made once per batch here.  iterative and bb decode each
    # block from its row of the batch tables, through the per-block step as
    # this module holds it at each batch, so a wrapper set here (the
    # benchmark's tracer) sees every block
    if det == "bf":
        def pick(Y, w):
            return bf_detect_batch(Y, cb, w), bf_op_count(cb, w)
    elif det == "iterative":
        pick = lambda Y, w: _decisions(map(iterative_sd_detect, iterative_rows(Y),
                                           repeat(cb), w.tolist(), repeat(config.e_max)))
    else:  # bb
        pick = lambda Y, w: _decisions(map(bb_detect, bb_rows(Y, cb), repeat(cb)))
    # the channel knowledge: under csi, sum(H) is the level scale and H the
    # joint rule's reference; blind, each batch's mean block sum (E[sum(Y)] =
    # sum(H) over uniform labels at unit mean power; 127/128 of it for the
    # truncated combined32 at M = 3) and the h02 profile (no blind rule yet)
    csi = config.calibration == "csi"
    total, reference = (float(H.sum()), H) if csi else (None, fixture_h02().H)

    def decode(Y, tx, rng):
        m = estimate_intensity_batch(Y, pam, total if csi else float(Y.sum()) / len(Y))
        w = (cb.weight_array[tx // pam.M] if config.weight_mode == "genie"
             else classify_weight_batch(Y, cb, pam, m, reference))
        q, ops = pick(Y, w)
        return np.where(q >= 0, q * pam.M + m - 1, -1), ops
    return _Link(HS, bits, decode)


def _simulate_batch(config: SimConfig, link: _Link, Y: np.ndarray, sigma, point_idx, batch_idx):
    """One batch: len(Y) signal indices, their received blocks written over
    Y, the noise per element having standard deviation sigma, and the decode.
    Returns (bit errors, blocks, ops)."""
    rng = _batch_rng(config, point_idx, batch_idx)
    tx = rng.integers(len(link.means), size=len(Y))
    # bit for bit means[tx] + rng.normal(0, sigma, Y.shape): the same draws,
    # and normal's 0 + sigma z is sigma z
    rng.standard_normal(out=Y)
    Y *= sigma
    np.add(link.means[tx], Y, out=Y)
    rx, ops = link.decode(Y, tx, rng)
    # a missing decision, or one outside the signaling set, loses every bit
    valid = (rx >= 0) & (rx < len(link.means))
    errors = np.where(valid, bit_distance(tx, np.where(valid, rx, 0)), link.bits)
    return int(errors.sum()), len(Y), ops


def monte_carlo_ber(config: SimConfig, threads: int = 1) -> list[BerRecord]:
    """Simulate the configured detector over the Eb/N0 grid; records come
    back in grid order.

    The pool runs batches: each of min(threads, points) workers takes the
    point at the head of a ready queue, runs its next batch and puts it at
    the back while its stopping rule allows another, so the workers go round
    robin over the points and no point has two batches in flight.  A worker
    receives all its batches into one (BATCH_BLOCKS, ...) buffer: a fresh
    0.5-1 MB array per batch would sit at glibc malloc's mmap and trim
    thresholds and be page-faulted in again, about 224 minor faults a batch.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    link, grid = _link(config), config.ebn0_grid
    sigmas = [np.sqrt(n0_for_bits(db, link.bits) / 2.0) for db in grid]
    totals = [(0, 0, 0)] * len(grid)  # bit errors, blocks, ops per point
    ready, lock = deque(range(len(grid))), threading.Lock()

    def work():
        Y = np.empty((BATCH_BLOCKS, *link.means.shape[1:]))
        while True:
            with lock:
                if not ready:
                    return
                p = ready.popleft()
            # p is this worker's until it goes back on the queue
            batch = _simulate_batch(config, link, Y, sigmas[p], p, totals[p][1] // BATCH_BLOCKS)
            errors, blocks, ops = totals[p] = tuple(map(add, totals[p], batch))
            if errors < config.errors_target and blocks < config.block_cap:
                with lock:
                    ready.append(p)

    workers = min(threads, len(grid))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for job in [pool.submit(work) for _ in range(workers)]:
            job.result()
    return [BerRecord(scheme=config.scheme, detector=config.detector, ebn0_db=float(db),
                      ber=errors / (blocks * link.bits), bit_errors=errors,
                      bits=blocks * link.bits, blocks=blocks, seed=config.seed, ops=ops)
            for db, (errors, blocks, ops) in zip(grid, totals)]


def write_ber_csv(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scheme,detector,ebn0_db,ber,bit_errors,bits,blocks,seed\n")
        for r in records:
            fh.write(f"{r.scheme},{r.detector},{r.ebn0_db:.4f},{r.ber:.10e},"
                     f"{r.bit_errors},{r.bits},{r.blocks},{r.seed}\n")


def write_bound_csv(curve: BoundCurve, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scheme,ebn0_db,bound\n")
        for db, v in zip(curve.ebn0_db, curve.values):
            fh.write(f"{curve.scheme},{db:.4f},{v:.10e}\n")
