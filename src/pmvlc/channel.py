"""Line-of-sight optical MIMO channel: Lambertian gains and fixtures.

The received block is Y = H S + N where H[i][j] is the DC gain from LED j to
photodiode i and N has independent real Gaussian entries of variance N0/2;
n0_for_bits sets N0 from Eb/N0, and pmvlc.analysis draws N.
Two measured-style gain matrices ship as plain-text fixtures: a 0.2 m
transmitter grid (h02) and a 0.6 m grid with four blocked links
(h06_blocked).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np


@dataclass(frozen=True)
class LambertianParams:
    """Emitter half-power semi-angle, receiver field of view, detector area."""

    phi_half_deg: float = 15.0
    psi_fov_deg: float = 15.0
    area_pd: float = 1e-4

    def __post_init__(self):
        if not 0 < self.phi_half_deg < 90:
            raise ValueError("phi_half_deg must be in (0, 90)")
        if not 0 < self.psi_fov_deg <= 90:
            raise ValueError("psi_fov_deg must be in (0, 90]")
        if not 0 < self.area_pd < math.inf:
            raise ValueError("area_pd must be positive and finite")

    @property
    def order(self) -> float:
        """Lambertian mode number -ln 2 / ln cos(phi_half)."""
        return -math.log(2.0) / math.log(math.cos(math.radians(self.phi_half_deg)))


@dataclass(frozen=True)
class RoomGeometry:
    """Ceiling LED grid facing down, floor-level photodiode grid facing up."""

    led_positions: tuple[tuple[float, float, float], ...]
    pd_positions: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.led_positions or not self.pd_positions:
            raise ValueError("geometry needs at least one LED and one photodiode")
        if not np.isfinite([*self.led_positions, *self.pd_positions]).all():
            raise ValueError("positions must be finite")


def _square_grid(spacing: float, z: float, ox: float, oy: float):
    half = spacing / 2.0
    corners = ((-1, -1), (-1, 1), (1, -1), (1, 1))
    return tuple((ox + sx * half, oy + sy * half, z) for (sx, sy) in corners)


def square_grid_geometry(
    tx_spacing: float = 0.2,
    rx_spacing: float = 0.1,
    height: float = 1.75,
    rx_offset_x: float = 0.0,
    rx_offset_y: float = 0.0,
) -> RoomGeometry:
    """Co-centered 2x2 grids; indices run over the same corner order on both
    sides, so index k faces index k and the two grid diagonals face each
    other at positions (1,4), (2,3), (3,2), (4,1)."""
    if height <= 0:
        raise ValueError(f"height must be positive, got {height}")
    if tx_spacing < 0 or rx_spacing < 0:
        raise ValueError(f"grid spacings must be non-negative, got {tx_spacing}, {rx_spacing}")
    return RoomGeometry(
        led_positions=_square_grid(tx_spacing, height, 0.0, 0.0),
        pd_positions=_square_grid(rx_spacing, 0.0, rx_offset_x, rx_offset_y),
    )


DEFAULT_LAMBERTIAN = LambertianParams()


def lambertian_gain(led, pd, params: LambertianParams = DEFAULT_LAMBERTIAN) -> float:
    """DC gain (order+1) A / (2 pi f^2) cos^order(phi) cos(psi) inside the
    field of view, zero outside.

    phi is the emission angle off the downward LED axis, psi the incidence
    angle off the upward photodiode axis, f the LED-photodiode distance.
    """
    led = np.asarray(led, dtype=np.float64)
    pd = np.asarray(pd, dtype=np.float64)
    diff = pd - led
    f = float(np.linalg.norm(diff))
    if f == 0.0:
        raise ValueError("LED and photodiode positions coincide")
    cos_phi = -diff[2] / f  # emission measured against the LED normal (0, 0, -1)
    cos_psi = -diff[2] / f  # incidence measured against the PD normal (0, 0, 1)
    if cos_psi <= 0.0:
        return 0.0
    psi = math.degrees(math.acos(min(1.0, cos_psi)))
    if psi > params.psi_fov_deg:
        return 0.0
    e = params.order
    return (e + 1.0) * params.area_pd / (2.0 * math.pi * f * f) * (cos_phi ** e) * cos_psi


@dataclass(frozen=True)
class ChannelMatrix:
    """Gain matrix H[i][j] from LED j to photodiode i; a blocked link has
    zero gain."""

    H: np.ndarray

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.H, dtype=np.float64))
        h.setflags(write=False)
        object.__setattr__(self, "H", h)
        if h.ndim != 2:
            raise ValueError("H must be a matrix")
        if not (np.isfinite(h).all() and (h >= 0).all()):
            raise ValueError("gains must be finite and nonnegative")


def build_channel(
    geometry: RoomGeometry, params: LambertianParams = DEFAULT_LAMBERTIAN
) -> ChannelMatrix:
    """Evaluate the Lambertian gain for every LED-photodiode pair."""
    H = np.array(
        [
            [lambertian_gain(led, pd, params) for led in geometry.led_positions]
            for pd in geometry.pd_positions
        ],
        dtype=np.float64,
    )
    return ChannelMatrix(H)


def apply_blockage(channel: ChannelMatrix | np.ndarray, pairs) -> ChannelMatrix:
    """Zero the gain of each (transmitter, receiver) pair, 1-based indices."""
    H = np.array(channel.H if isinstance(channel, ChannelMatrix) else channel,
                 dtype=np.float64)
    n_rx, n_tx = H.shape
    for tx, rx in pairs:
        if not (1 <= tx <= n_tx and 1 <= rx <= n_rx):
            raise ValueError(f"pair ({tx}, {rx}) out of range")
        H[rx - 1, tx - 1] = 0.0
    return ChannelMatrix(H)


def n0_for_bits(ebn0_db: float, bits: int) -> float:
    """Noise density giving the requested per-bit SNR.  Transmit power is
    fixed at unit mean (see pmvlc.txcodec), so Eb = 1/bits.  Raises
    ValueError unless the density is positive and finite."""
    if bits < 1:
        raise ValueError("bits must be positive")
    try:
        n0 = 1.0 / bits / (10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10**(dB/10) out of range
        n0 = 0.0
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"Eb/N0 must be finite and give N0 in (0, inf) at {bits} bits; got {ebn0_db} dB")
    return n0


def _load_fixture(name: str) -> np.ndarray:
    text = resources.files("pmvlc.fixtures").joinpath(name).read_text()
    return np.array([[float(v) for v in line.split()] for line in text.strip().splitlines()])


@functools.cache
def fixture_h02() -> ChannelMatrix:
    """Gain matrix of the 0.2 m transmitter grid over a 0.1 m receiver grid."""
    return ChannelMatrix(_load_fixture("h02.txt"))


def fixture_h06_blocked() -> ChannelMatrix:
    """0.6 m transmitter grid with the four diagonal-facing links blocked."""
    return ChannelMatrix(_load_fixture("h06_blocked.txt"))


FIXTURES = {"h02": fixture_h02, "h06_blocked": fixture_h06_blocked}
