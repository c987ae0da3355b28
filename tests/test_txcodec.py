"""PAM level scaling at unit mean power, and the transmit matrices the harness sends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvlc.codebook import combine_codebooks, enumerate_weight_w
from pmvlc.detectors import signal_stack
from pmvlc.txcodec import PamConfig, pam_intensity


def test_intensity_reference_values():
    assert pam_intensity(1, 1, 1) == pytest.approx(1.0)
    assert pam_intensity(2, 2, 1) == pytest.approx(4.0 / 3.0)
    assert pam_intensity(1, 2, 2) == pytest.approx(1.0 / 3.0)


def test_intensity_validation():
    with pytest.raises(ValueError):
        pam_intensity(0, 2, 1)
    with pytest.raises(ValueError):
        pam_intensity(3, 2, 1)
    with pytest.raises(ValueError):
        pam_intensity(1, 2, 0)


def test_pam_config_validation():
    with pytest.raises(ValueError):
        PamConfig(M=0)


def test_encode_scales_entry():
    # row (q-1) M + (m-1) of the signal stack is a_m P_q
    cb = enumerate_weight_w(4, 1)
    pam = PamConfig(M=2)
    expected = pam_intensity(2, 2, 1) * np.eye(4)  # entry 1 is the identity
    np.testing.assert_allclose(signal_stack(cb, pam)[1], expected, rtol=1e-15)


def test_block_power_weight_invariant():
    # Same level index, same L: total block power must not depend on the
    # weight because the per-LED level carries a 1/w split; it scales with
    # the level, and averaged over the levels it is L (unit power per slot).
    w1 = enumerate_weight_w(4, 1)
    w2 = enumerate_weight_w(4, 2).subset(range(8))
    cb = combine_codebooks([w1, w2])
    pam = PamConfig(M=3)
    power = signal_stack(cb, pam).sum(axis=(1, 2)).reshape(cb.size, pam.M)
    assert set(cb.weight_array.tolist()) == {1, 2}
    for m in range(1, 4):
        np.testing.assert_allclose(power[:, m - 1], 4 * pam_intensity(m, 3, 1), rtol=1e-14)
    np.testing.assert_allclose(power.mean(axis=1), 4.0, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_mean_slot_power_is_one(M, w):
    # Averaged over the level alphabet the per-slot optical sum is 1.
    mean = sum(w * pam_intensity(m, M, w) for m in range(1, M + 1)) / M
    assert mean == pytest.approx(1.0)
