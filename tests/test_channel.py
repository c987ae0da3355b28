"""Lambertian gain, fixture, blockage and noise-scaling tests; the noise is
checked on the blocks the Monte Carlo harness decodes."""

import dataclasses
import math

import numpy as np
import pytest

from pmvlc import analysis
from pmvlc.analysis import BATCH_BLOCKS, SimConfig
from pmvlc.channel import (
    ChannelMatrix,
    LambertianParams,
    apply_blockage,
    build_channel,
    fixture_h02,
    fixture_h06_blocked,
    lambertian_gain,
    n0_for_bits,
    square_grid_geometry,
)
from pmvlc.codebook import enumerate_weight_w

FULL24 = enumerate_weight_w(4, 1)
H02_ROW = (1.0708e-4, 9.937e-5, 9.937e-5, 9.226e-5)


class TestLambertianGain:
    def test_on_axis_value(self):
        # Frozen from direct evaluation: (order+1) A / (2 pi f^2) at phi=psi=0
        # with a 15 degree half-power angle, 1.75 m distance, 1 cm^2 detector.
        g = lambertian_gain((0.0, 0.0, 1.75), (0.0, 0.0, 0.0))
        assert g == pytest.approx(1.0910e-4, rel=1e-3)

    def test_order_value(self):
        assert LambertianParams().order == pytest.approx(20.0, rel=1e-2)

    def test_inverse_square_scaling(self):
        near = lambertian_gain((0, 0, 1.0), (0, 0, 0))
        far = lambertian_gain((0, 0, 2.0), (0, 0, 0))
        assert near / far == pytest.approx(4.0, rel=1e-12)

    def test_outside_fov_is_zero(self):
        # tan(16 deg) * height puts the photodiode just past a 15 degree FOV.
        x = 1.75 * math.tan(math.radians(16.0))
        assert lambertian_gain((0, 0, 1.75), (x, 0, 0)) == 0.0
        x = 1.75 * math.tan(math.radians(14.0))
        assert lambertian_gain((0, 0, 1.75), (x, 0, 0)) > 0.0

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            lambertian_gain((0, 0, 1), (0, 0, 1))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LambertianParams(phi_half_deg=0.0)
        with pytest.raises(ValueError):
            LambertianParams(psi_fov_deg=100.0)
        for area in (-1.0, math.inf):
            with pytest.raises(ValueError):
                LambertianParams(area_pd=area)


class TestGeometry:
    def test_default_grid_matches_h02_fixture(self):
        cm = build_channel(square_grid_geometry())
        fx = fixture_h02()
        assert np.abs(cm.H - fx.H).max() / fx.H.min() < 0.10
        # Symmetric with the diagonal strictly dominant.
        assert np.allclose(cm.H, cm.H.T)
        for j in range(4):
            col = cm.H[:, j]
            assert col[j] == max(col)

    def test_wide_grid_loses_diagonal_links(self):
        # At 0.6 m spacing the two diagonal-facing pairs leave the 15 degree
        # field of view, so the gain matrix has zeros before any blockage.
        cm = build_channel(square_grid_geometry(tx_spacing=0.6))
        expected_zero = [(0, 3), (1, 2), (2, 1), (3, 0)]
        for i, j in expected_zero:
            assert cm.H[i, j] == 0.0
        assert int((cm.H == 0).sum()) == 4

    @pytest.mark.parametrize("gain", [-1e-5, math.nan, math.inf])
    def test_gains_must_be_finite_and_nonnegative(self, gain):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ChannelMatrix(np.full((2, 2), gain))

    @pytest.mark.parametrize("kwargs,message", [
        ({"height": -1.75}, "height must be positive"),
        ({"height": 0.0}, "height must be positive"),
        ({"tx_spacing": -0.6}, "spacings must be non-negative"),
        ({"rx_spacing": -0.1}, "spacings must be non-negative"),
    ])
    def test_impossible_room_rejected(self, kwargs, message):
        # a negative height puts the LEDs below the floor (every gain zero),
        # and a negative spacing mirrors the grid onto the other corners
        with pytest.raises(ValueError, match=message):
            square_grid_geometry(**kwargs)

    def test_receiver_offset_drops_more_links(self):
        base = build_channel(square_grid_geometry(tx_spacing=0.6))
        moved = build_channel(square_grid_geometry(tx_spacing=0.6, rx_offset_x=0.4))
        assert int((moved.H == 0).sum()) > int((base.H == 0).sum())


class TestFixtures:
    def test_h02_verbatim(self):
        H = fixture_h02().H
        assert H.shape == (4, 4)
        assert tuple(H[0]) == H02_ROW
        assert np.allclose(H, H.T)

    def test_h06_blocked_verbatim(self):
        cm = fixture_h06_blocked()
        assert cm.H[0, 0] == 6.888e-5
        assert cm.H[0, 1] == 5.559e-5
        assert cm.H[2, 2] == 1.0708e-4
        zeros = [(0, 3), (1, 2), (2, 1), (3, 0)]
        for i, j in zeros:
            assert cm.H[i, j] == 0.0
        assert int((cm.H != 0).sum()) == 12


class TestBlockage:
    def test_pairs_zero_named_links(self):
        cm = apply_blockage(fixture_h02(), [(1, 4), (2, 3), (3, 2), (4, 1)])
        # (tx, rx) pairs: entry [rx-1, tx-1] goes dark.
        for tx, rx in [(1, 4), (2, 3), (3, 2), (4, 1)]:
            assert cm.H[rx - 1, tx - 1] == 0.0
        assert int((cm.H == 0).sum()) == 4

    def test_empty_pairs_identity(self):
        fx = fixture_h02()
        cm = apply_blockage(fx, [])
        assert np.array_equal(cm.H, fx.H)

    def test_all_pairs_dark(self):
        pairs = [(tx, rx) for tx in range(1, 5) for rx in range(1, 5)]
        cm = apply_blockage(fixture_h02(), pairs)
        assert not cm.H.any()

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            apply_blockage(fixture_h02(), [(0, 1)])
        with pytest.raises(ValueError):
            apply_blockage(fixture_h02(), [(1, 5)])


def harness_blocks(monkeypatch, ebn0_db, seed=0):
    """One batch of received blocks as monte_carlo_ber decodes them for
    full24 under ML, and the signal indices sent, captured through a link
    whose decode records its input."""
    seen = []
    build = analysis._link

    def recording_link(config):
        link = build(config)

        def decode(Y, tx, rng):
            seen.append((Y.copy(), tx.copy()))
            return link.decode(Y, tx, rng)

        return dataclasses.replace(link, decode=decode)

    monkeypatch.setattr(analysis, "_link", recording_link)
    config = SimConfig(scheme="full24", detector="ml", ebn0_grid=(ebn0_db,),
                       channel=fixture_h02(), codebook=FULL24, seed=seed,
                       block_cap=BATCH_BLOCKS)
    [record] = analysis.monte_carlo_ber(config)
    assert record.blocks == BATCH_BLOCKS
    [(Y, tx)] = seen
    return Y, tx


class TestTransmit:
    def test_noiseless_limit(self, monkeypatch):
        # at M = 1 signal v is entry v + 1 at unit level
        Y, tx = harness_blocks(monkeypatch, 400.0)
        assert Y.shape == (BATCH_BLOCKS, 4, 4)
        assert set(tx.tolist()) == set(range(16))  # the 16 signaling entries of 24
        np.testing.assert_allclose(Y, fixture_h02().H @ FULL24.matrix_stack[tx],
                                   rtol=0, atol=1e-18)

    def test_noise_statistics(self, monkeypatch):
        # Y - H S has mean ~ 0 and per-element variance ~ n0/2 over one batch.
        Y, tx = harness_blocks(monkeypatch, 100.0, seed=7)
        n0 = n0_for_bits(100.0, FULL24.bits_per_block(1))
        noise = Y - fixture_h02().H @ FULL24.matrix_stack[tx]
        assert abs(noise.mean()) < 4 * math.sqrt(n0 / 2 / noise.size)
        assert noise.var() == pytest.approx(n0 / 2, rel=0.05)


class TestEbN0:
    def test_zero_db_unit_case(self):
        # One signaled bit, unit power: N0 equals Es at 0 dB.
        assert n0_for_bits(0.0, 1) == pytest.approx(1.0)

    def test_ten_db_scaling(self):
        assert n0_for_bits(10.0, 1) == pytest.approx(0.1)

    def test_codebook_normalization(self):
        cb = enumerate_weight_w(4, 1)  # 24 entries -> 16 signal -> 4 bits
        n0 = n0_for_bits(0.0, cb.bits_per_block(1))
        assert n0 == pytest.approx(1.0 / 4.0)
        # 5 bits once M=2 doubles the constellation.
        n0_m2 = n0_for_bits(0.0, cb.bits_per_block(2))
        assert n0_m2 == pytest.approx(1.0 / 5.0)
