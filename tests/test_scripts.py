"""The helper scripts under scripts/, loaded as modules."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pmvlc.channel import fixture_h02
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
        # share the pairs the union bound sums over
        spectrum = load_script("codebook_distances").spectrum
        pam, H = PamConfig(M=M), fixture_h02().H
        full24 = spectrum(named_codebook("full24"), pam, H)
        n = 16 * M
        assert len(full24) == n * (n - 1) // 2
        np.testing.assert_array_equal(full24, spectrum(named_codebook("pm16"), pam, H))
