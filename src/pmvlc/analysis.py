"""Error-rate analysis: Gaussian tail helpers, the pairwise union bound, and
a reproducible Monte Carlo BER harness.

Q is the standard library's math.erfc, so nothing here needs scipy; the
union bound evaluates it once per distinct pair distance.

The harness only draws signal indices, sends their received means through
Gaussian noise, decodes through a detector from pmvlc.detectors and counts
bit errors and the detector's modelled op counts; every decision rule and
op model lives in that module.

Reproducibility contract: a record depends only on (master seed, scheme,
detector, grid index, batch index).  Batches are fixed-size and each seeds
its own generator from that tuple.  Grid points run in parallel, but each
point runs its batches 0, 1, ... in order and stops at the first one after
which the cumulative stopping rule holds, so no batch is computed and
dropped, and the output is byte-identical for any worker count.

Memory is stable from batch to batch: each grid point receives all of its
batches into one buffer (see _simulate_point), and the coherent kernels
work in fixed-size row slices, so a steady-state batch page-faults a few
times at most instead of hundreds.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .channel import ChannelMatrix, n0_for_bits
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
    sm_detect_batch,
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


def _check_finite(ebn0_grid):
    # nan gives a BER of 1/2 at a nan point, inf a noiseless one
    if not np.isfinite(np.asarray(ebn0_grid, dtype=np.float64)).all():
        raise ValueError(f"Eb/N0 values must be finite, got {tuple(ebn0_grid)}")


def squared_distances(codebook: Codebook, pam: PamConfig, H) -> np.ndarray:
    """(n, n) squared distances ||H (S_i - S_j)||_F^2 between the received means
    of the n signals that carry data, one row at a time: the full (n, n, L, L)
    difference would be tens of MB at n = 512.  Exactly symmetric."""
    HS = received_means(codebook, pam, H)
    return np.stack([((HS[i] - HS) ** 2).sum(axis=(1, 2)) for i in range(len(HS))])


def _pair_terms(codebook: Codebook, pam: PamConfig, H):
    """Bit distances and squared channel-space distances over all ordered
    signaling pairs with distinct labels."""
    d2 = squared_distances(codebook, pam, H)
    labels, off = np.arange(len(d2)), ~np.eye(len(d2), dtype=bool)
    d_bits = bit_distance(labels[:, None], labels[None, :])[off]
    return d_bits.astype(np.float64), d2[off], len(d2), codebook.bits_per_block(pam.M)


def ber_union_bound(codebook: Codebook, pam: PamConfig, H, ebn0_grid,
                    scheme: str = "") -> BoundCurve:
    """Union bound on BER: average pairwise error weighted by bit distance.

    Each term uses the received means the simulated receiver sees, so the
    bound is directly comparable with it at the same noise density.  Q runs
    once per distinct squared distance, and the terms and their sum order are
    those of an all-pairs evaluation.
    """
    _check_finite(ebn0_grid)
    d_bits, d2, n_sig, bits = _pair_terms(codebook, pam, H)
    d2u, inv = np.unique(d2, return_inverse=True)
    values = []
    for db in ebn0_grid:
        n0 = n0_for_bits(db, bits)
        terms = pair_tail(d2u, n0)[inv]
        values.append(float(np.sum(d_bits * terms) / (n_sig * bits)))
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
    one check of each setting.  calibration is the blind detectors' channel
    knowledge (CSI): its sum is their level scale and it is the joint weight
    rule's reference channel; None leaves them blind (see _link).  rc and sm
    default to the library sizes at the channel's LED count.
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
    calibration: np.ndarray | None = None
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
                baseline.bits  # raises for sizes that give no whole, positive bit count
            except ValueError as exc:
                raise ValueError(f"{self.detector} M = {baseline.M}: {exc}") from None
        elif self.codebook is None:
            raise ValueError(f"detector {self.detector!r}: coded detectors need a codebook")
        elif self.codebook.L != L:
            raise ValueError(f"codebook L = {self.codebook.L}, but the channel has {L} LEDs")
        elif self.detector == "bb" and self.codebook.weights_present != (1,):
            raise ValueError("bb detector requires a weight-1 codebook")
        if len(self.ebn0_grid) == 0:
            raise ValueError("empty Eb/N0 grid")
        _check_finite(self.ebn0_grid)
        if list(self.ebn0_grid) != sorted(self.ebn0_grid):
            raise ValueError("Eb/N0 grid must be ascending")
        for key in ("errors_target", "block_cap", "e_max"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.weight_mode not in ("genie", "joint"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")


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
        cfg, detect = (config.rc, rc_detect_batch) if det == "rc" else (config.sm, sm_detect_batch)
        return _Link(cfg.signals @ H.T, cfg.bits,
                     lambda Y, tx, rng: (detect(Y, H, cfg), 0))

    cb, pam, cal = config.codebook, config.pam, config.calibration
    HS, bits = received_means(cb, pam, H), cb.bits_per_block(pam.M)
    if det == "ml":
        # scores only the 2**bits signaling means
        return _Link(HS, bits, lambda Y, tx, rng: (ml_detect_batch(Y, HS, pam.M),
                                                   len(Y) * ml_op_count(len(HS), cb.L)))
    if det == "guess":
        return _Link(HS, bits, lambda Y, tx, rng: (rng.integers(len(HS), size=len(tx)), 0))

    # the blind decoders pick an entry within a weight class; the class and
    # the level are side decisions, each made once per batch here.  iterative
    # and bb decode each block from its row of the batch tables, through the
    # per-block step as this module holds it at each batch, so a wrapper set
    # here (the benchmark's tracer) sees every block
    if det == "bf":
        def pick(Y, w):
            return bf_detect_batch(Y, cb, w)[0], bf_op_count(cb, w)
    elif det == "iterative":
        pick = lambda Y, w: _decisions(map(iterative_sd_detect, iterative_rows(Y, cb),
                                           repeat(cb), w.tolist(), repeat(config.e_max)))
    else:  # bb
        pick = lambda Y, w: _decisions(map(bb_detect, bb_rows(Y, cb), repeat(cb)))
    # sum(H), the blind level scale, per batch: the calibration's, or the batch's
    # mean block sum, as E[sum(Y)] = sum(H) over uniform labels at unit mean
    # power (a truncated alphabet skews it: 127/128 for combined32 at M = 3)
    total = None if cal is None else float(_as_H(cal).sum())

    def decode(Y, tx, rng):
        g = float(Y.sum()) / len(Y) if total is None else total
        w = classify_weight_batch(Y, cb, config.weight_mode, pam,
                                  cb.weight_array[tx // pam.M], cal, g)
        q, ops = pick(Y, w)
        m = estimate_intensity_batch(Y, pam, g)
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


def _simulate_point(config: SimConfig, link: _Link, point_idx: int, ebn0_db: float) -> BerRecord:
    """Batches 0, 1, ... of one grid point, in order, until the cumulative
    bit-error target or the block cap is reached.

    Every batch is received into one (BATCH_BLOCKS, ...) buffer, allocated
    here and owned by this point's task alone.  A fresh 0.5-1 MB array per
    batch would sit at glibc malloc's dynamic mmap and trim thresholds, go
    back to the system when freed and be page-faulted in again by the next
    batch: about 224 minor faults per batch before any decoding.
    """
    sigma = np.sqrt(n0_for_bits(ebn0_db, link.bits) / 2.0)
    Y = np.empty((BATCH_BLOCKS, *link.means.shape[1:]))
    errors = blocks = ops = 0
    while errors < config.errors_target and blocks < config.block_cap:
        e, nblocks, nops = _simulate_batch(config, link, Y, sigma, point_idx, blocks // BATCH_BLOCKS)
        errors += e
        blocks += nblocks
        ops += nops
    return BerRecord(scheme=config.scheme, detector=config.detector, ebn0_db=float(ebn0_db),
                     ber=errors / (blocks * link.bits), bit_errors=errors,
                     bits=blocks * link.bits, blocks=blocks, seed=config.seed, ops=ops)


def monte_carlo_ber(config: SimConfig, threads: int = 1) -> list[BerRecord]:
    """Simulate the configured detector over the Eb/N0 grid, up to `threads`
    grid points at a time; records come back in grid order."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    link = _link(config)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda p: _simulate_point(config, link, *p),
                             enumerate(config.ebn0_grid)))


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
