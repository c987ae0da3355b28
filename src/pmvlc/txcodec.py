"""Unipolar PAM sizing and the per-LED drive intensity of each level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PamConfig:
    """Unipolar M-PAM settings: M levels around mean optical power I."""

    M: int = 1
    I: float = 1.0

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "M", int(self.M))
        if not 0 < self.I < np.inf:
            raise ValueError(f"I must be positive and finite, got {self.I}")


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
