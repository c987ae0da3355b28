"""Bit blocks to transmit matrices with unipolar PAM intensity scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, bits_to_entry


@dataclass(frozen=True)
class PamConfig:
    """Unipolar M-PAM settings: M levels around mean optical power I."""

    M: int = 1
    I: float = 1.0

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "M", int(self.M))
        if not self.I > 0:
            raise ValueError("I must be positive")


def pam_intensity(m, M: int, w, I: float):
    """Per-LED drive level 2*I*m / (w*(M+1)).

    The 1/w factor splits the block power across the w active LEDs per slot,
    so the per-slot total 2*I*m/(M+1) and its mean over levels, I, do not
    depend on the weight.  m and w may be integer arrays; the result then
    takes their broadcast shape.
    """
    if ((np.asarray(m) < 1) | (np.asarray(m) > M)).any():
        raise ValueError(f"m={m} outside 1..{M}")
    if (np.asarray(w) < 1).any():
        raise ValueError("w must be at least 1")
    if not I > 0:
        raise ValueError("I must be positive")
    return 2.0 * I * m / (w * (M + 1))


@dataclass(frozen=True)
class TransmitBlock:
    """One signaling block: nonnegative intensity matrix plus its indices."""

    S: np.ndarray
    q: int
    m: int
    w: int

    def __post_init__(self):
        s = np.ascontiguousarray(np.asarray(self.S, dtype=np.float64))
        s.setflags(write=False)
        object.__setattr__(self, "S", s)
        if (s < 0).any():
            raise ValueError("intensities must be nonnegative")


def encode(bits, codebook: Codebook, pam: PamConfig) -> TransmitBlock:
    """Map one bit block to its transmit matrix a_m * P_q."""
    q, m = bits_to_entry(bits, codebook, pam.M)
    entry = codebook.entries[q - 1]
    a = pam_intensity(m, pam.M, entry.weight, pam.I)
    return TransmitBlock(S=a * entry.entries, q=q, m=m, w=entry.weight)


def frame_bits(bits, block_size: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Split a bit stream into blocks, zero-padding a short tail.

    Returns the blocks and a flag telling whether padding was added.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    pad = (-len(bits)) % block_size
    padded = bits + (0,) * pad
    blocks = tuple(padded[i:i + block_size] for i in range(0, len(padded), block_size))
    return blocks, pad > 0


def block_optical_power(S: np.ndarray) -> float:
    """Total optical power of a block: the sum of all matrix intensities."""
    return float(np.asarray(S).sum())
