"""Unipolar PAM sizing and the per-LED drive level of each PAM level.

Transmit power is fixed at unit mean: averaged over the M levels, each
slot's optical sum is 1.  BER is a function of Eb/N0 alone, and the noise
density is set from Eb (channel.n0_for_bits), so any other mean power would
scale signal and noise alike and change no result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PamConfig:
    """Unipolar M-PAM settings: M levels around unit mean optical power."""

    M: int = 1

    def __post_init__(self):
        if int(self.M) != self.M:
            raise ValueError(f"M must be an integer, got {self.M}")
        if self.M < 1:
            raise ValueError(f"M must be at least 1, got {self.M}")
        object.__setattr__(self, "M", int(self.M))


def pam_intensity(m, M: int, w):
    """Per-LED drive level 2*m / (w*(M+1)).

    The 1/w factor splits the block power across the w active LEDs per slot,
    so the per-slot total 2*m/(M+1) and its mean over levels, 1, do not
    depend on the weight.  m and w may be integer arrays; the result then
    takes their broadcast shape.
    """
    if ((np.asarray(m) < 1) | (np.asarray(m) > M)).any():
        raise ValueError(f"m={m} outside 1..{M}")
    if (np.asarray(w) < 1).any():
        raise ValueError("w must be at least 1")
    return 2.0 * m / (w * (M + 1))
