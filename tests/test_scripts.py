"""The helper scripts under scripts/, loaded as modules."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pmvlc.analysis import bit_distance
from pmvlc.channel import fixture_h02
from pmvlc.detectors import received_means
from pmvlc.scenarios import named_codebook
from pmvlc.txcodec import PamConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCodebookDistances:
    @pytest.mark.parametrize("M", [1, 4])
    def test_full24_spectrum_covers_the_signaling_pairs(self, M):
        # full24 signals its first 16 entries, the 16 of pm16, so both books
        # share the pairs the union bound sums over: each distinct distance a
        # direct pairwise sum, bit for bit, every pair counted once and the bit
        # weights half the all-pairs bit-distance total
        spectrum = load_script("codebook_distances").spectrum
        pam, H = PamConfig(M=M), fixture_h02().H
        full24 = spectrum(named_codebook("full24"), pam, H)
        for a, b in zip(full24, spectrum(named_codebook("pm16"), pam, H)):
            np.testing.assert_array_equal(a, b)
        HS = received_means(named_codebook("pm16"), pam, H)
        n = 16 * M
        direct = Counter(float(((HS[i] - HS[j]) ** 2).sum())
                         for i in range(n) for j in range(i + 1, n))
        d2, counts, weights = full24
        assert list(zip(d2.tolist(), counts.tolist())) == sorted(direct.items())
        assert counts.sum() == n * (n - 1) // 2
        labels = np.arange(n)
        assert 2 * weights.sum() == bit_distance(labels[:, None], labels[None, :]).sum()
