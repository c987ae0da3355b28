import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from pmvlc import analysis, detectors
from pmvlc.analysis import (
    BATCH_BLOCKS,
    BerRecord,
    BoundCurve,
    SimConfig,
    bit_distance,
    ber_union_bound,
    distance_spectrum,
    monte_carlo_ber,
    pair_tail,
    qfunc,
    write_ber_csv,
    write_bound_csv,
)
from pmvlc.channel import (
    build_channel,
    fixture_h02,
    fixture_h06_blocked,
    n0_for_bits,
    square_grid_geometry,
)
from pmvlc.codebook import combine_codebooks, enumerate_weight_w, permutation_table
from pmvlc.detectors import (
    RcConfig,
    SmConfig,
    bf_detect_batch,
    bf_sd_detect,
    estimate_intensity_batch,
    ml_detect_batch,
    rc_detect_batch,
    received_means,
    signal_stack,
    sm_detect_batch,
)
from pmvlc.scenarios import CODEBOOKS, named_codebook
from pmvlc.txcodec import PamConfig, pam_intensity

H02 = fixture_h02()
FULL24 = enumerate_weight_w(4, 1)
PM16 = FULL24.subset(range(16), label="pm16")
W2SEL8 = enumerate_weight_w(4, 2).subset((2, 17, 28, 38, 45, 59, 65, 80), label="w2sel8")
COMBINED32 = combine_codebooks([FULL24, W2SEL8], label="combined32")
M1 = PamConfig(M=1)


class TestQfunc:
    def test_half_at_zero(self):
        assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_numeric_integral(self):
        # independent oracle: integrate the normal pdf tail directly
        for r in (0.5, 1.0, 2.0, 3.0):
            tail, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), r, np.inf)
            assert qfunc(r) == pytest.approx(tail, rel=1e-10)

    def test_known_value_q3(self):
        assert qfunc(3.0) == pytest.approx(1.3498980316e-3, rel=1e-9)

    def test_symmetry(self):
        for r in (0.3, 1.7, 2.9):
            assert qfunc(-r) == pytest.approx(1.0 - qfunc(r), abs=1e-14)

    def test_vectorized(self):
        out = qfunc(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out.dtype == np.float64
        assert np.all(np.diff(out) < 0)

    def test_scalar_in_scalar_out(self):
        out = qfunc(0.0)
        assert type(out) is np.float64
        assert qfunc(np.float64(3.0)).shape == ()

    def test_matches_scipy_erfc_across_the_underflow_edge(self):
        # a dense grid over [-40, 40] plus a finer one over the edge where
        # Q(r) leaves the normal range (r ~ 37.52) and then underflows to 0
        r = np.concatenate([np.linspace(-40.0, 40.0, 80_001), np.linspace(37.0, 38.6, 16_001)])
        ref = 0.5 * erfc(r / np.sqrt(2.0))
        out = qfunc(r)
        tiny = np.finfo(np.float64).tiny
        normal = ref >= tiny
        assert normal.any() and (~normal).any() and (ref == 0).any()
        np.testing.assert_allclose(out[normal], ref[normal], rtol=1e-13, atol=0)
        assert ((out[~normal] >= 0) & (out[~normal] < tiny)).all()

    def test_non_finite(self):
        assert qfunc(np.inf) == 0.0
        assert qfunc(-np.inf) == 1.0
        assert math.isnan(qfunc(np.nan))
        np.testing.assert_array_equal(qfunc(np.array([-np.inf, np.inf])), [1.0, 0.0])


def _pep(S1, S2, H, n0):
    """Pairwise error probability of two transmit blocks through H."""
    return float(pair_tail(float(np.sum((H @ (S1 - S2)) ** 2)), n0))


class TestPairwiseErrorProb:
    def test_vanishes_at_high_snr(self):
        S1 = FULL24.matrix_stack[0]
        S2 = FULL24.matrix_stack[1]
        p = _pep(S1, S2, H02.H, 1e-16)
        assert p < 1e-12

    def test_monotone_in_n0(self):
        S1, S2 = FULL24.matrix_stack[0], FULL24.matrix_stack[5]
        probs = [_pep(S1, S2, H02.H, n0) for n0 in (1e-10, 1e-11, 1e-12)]
        assert probs[0] > probs[1] > probs[2]

    def test_matches_two_candidate_simulation(self):
        # empirical oracle: ML choice between two known blocks
        rng = np.random.default_rng(404)
        S1, S2 = FULL24.matrix_stack[0], FULL24.matrix_stack[1]
        H = H02.H
        d2 = float(np.sum((H @ (S1 - S2)) ** 2))
        n0 = d2 / (2 * 2.326**2)  # target PEP ~ Q(2.326) ~ 1e-2
        pep = _pep(S1, S2, H, n0)
        total = 0
        trials = 2_000_000
        chunk = 200_000
        for _ in range(trials // chunk):
            N = rng.normal(0.0, math.sqrt(n0 / 2), size=(chunk, 4, 4))
            Y = (H @ S1)[None] + N
            r1 = ((Y - (H @ S1)[None]) ** 2).sum(axis=(1, 2))
            r2 = ((Y - (H @ S2)[None]) ** 2).sum(axis=(1, 2))
            total += int((r2 < r1).sum())
        emp = total / trials
        sigma = math.sqrt(pep * (1 - pep) / trials)
        assert abs(emp - pep) < 3 * sigma


class TestUnionBound:
    def test_curve_nonincreasing_and_positive(self):
        curve = ber_union_bound(COMBINED32, M1, H02, np.arange(94.0, 108.0, 2.0), scheme="c32")
        assert all(v >= 0 for v in curve.values)
        assert all(a >= b for a, b in zip(curve.values, curve.values[1:]))

    def test_bound_curve_validation(self):
        with pytest.raises(ValueError):
            BoundCurve("x", (0.0, 1.0), (1e-3, 2e-3))
        for value in (-1e-3, math.nan):
            with pytest.raises(ValueError):
                BoundCurve("x", (0.0,), (value,))

    @pytest.mark.parametrize("grid", [(math.nan,), (100.0, math.nan), (math.inf,),
                                      (-math.inf, 100.0)])
    def test_rejects_non_finite_ebn0(self, grid):
        with pytest.raises(ValueError, match="finite"):
            ber_union_bound(PM16, M1, H02, grid)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(scheme="x", detector="ml", ebn0_grid=grid, channel=H02, codebook=PM16)

    def test_linear_in_bit_distance(self):
        # the bound is a weighted sum of pairwise tails over the distance
        # spectrum; doubling every bit weight must double the value
        HS, bits = received_means(PM16, M1, H02.H), PM16.bits_per_block(1)
        d2, _, weights = distance_spectrum(HS)
        terms = qfunc(np.sqrt(d2 / (2 * n0_for_bits(100.0, bits))))
        base = float(2 * np.sum(weights * terms) / (len(HS) * bits))
        doubled = float(2 * np.sum(2 * weights * terms) / (len(HS) * bits))
        assert doubled == 2 * base
        assert ber_union_bound(PM16, M1, H02, [100.0]).values == (base,)

    @pytest.mark.parametrize("book, M, channel", [
        ("combined32", 1, "h02"), ("combined32", 4, "h02"), ("combined32", 16, "h02"),
        ("combined32", 1, "h06_blocked"), ("combined32", 4, "h06_blocked"),
        ("combined32", 16, "h06_blocked"), ("pm16", 1, "grid06")])
    def test_distinct_distances_change_no_float(self, book, M, channel):
        # the streamed spectrum must give the very floats of a brute-force
        # (n, n) spectrum grouped by value and summed in ascending order, and
        # agree with the all-pairs sum up to the order of the additions
        book = {"combined32": COMBINED32, "pm16": PM16}[book]
        H = {"h02": H02, "h06_blocked": fixture_h06_blocked(),
             "grid06": build_channel(square_grid_geometry(tx_spacing=0.6))}[channel].H
        pam = PamConfig(M=M)
        HS, bits = received_means(book, pam, H), book.bits_per_block(M)
        n, labels = len(HS), np.arange(len(HS))
        d2 = np.stack([((HS[i] - HS) ** 2).sum(axis=(1, 2)) for i in range(n)])
        d_bits = bit_distance(labels[:, None], labels[None, :])
        upper, off = np.triu_indices(n, 1), ~np.eye(n, dtype=bool)
        distinct, inv = np.unique(d2[upper], return_inverse=True)
        weights = np.bincount(inv, d_bits[upper])
        assert len(distinct) < len(inv)
        d2u, inv_off = np.unique(d2[off], return_inverse=True)
        grid = np.arange(80.0, 118.0, 2.0)
        grouped, all_pairs = [], []
        for db in grid:
            n0 = n0_for_bits(db, bits)
            grouped.append(float(2.0 * np.sum(weights * pair_tail(distinct, n0)) / (n * bits)))
            terms = pair_tail(d2u, n0)[inv_off]
            all_pairs.append(float(np.sum(d_bits[off] * terms) / (n * bits)))
        values = ber_union_bound(book, pam, H, grid).values
        assert values == tuple(grouped)
        np.testing.assert_allclose(values, all_pairs, rtol=1e-13, atol=0)

    @staticmethod
    def _check_against_pairs(HS):
        # each distinct distance is a direct pairwise sum, bit for bit; the
        # counts cover every unordered pair once and the bit weights half the
        # all-pairs bit-distance total
        n, labels = len(HS), np.arange(len(HS))
        direct, bit_sums = {}, {}
        for i in range(n):
            for j in range(i + 1, n):
                d = float(((HS[i] - HS[j]) ** 2).sum())
                direct[d] = direct.get(d, 0) + 1
                bit_sums[d] = bit_sums.get(d, 0) + int(bit_distance(i, j))
        d2, counts, weights = distance_spectrum(HS)
        assert d2.tolist() == sorted(direct)
        assert counts.tolist() == [direct[d] for d in sorted(direct)]
        assert weights.tolist() == [bit_sums[d] for d in sorted(direct)]
        assert counts.sum() == n * (n - 1) // 2
        assert 2 * weights.sum() == bit_distance(labels[:, None], labels[None, :]).sum()

    @pytest.mark.parametrize("M", [1, 4, 16])
    def test_spectrum_values_are_the_pairwise_mean_distances(self, M):
        # at M = 16 (512 signals) the walk takes several row slices, so the
        # fold into the spectrum counts too
        pam = PamConfig(M=M)
        self._check_against_pairs(H02.H @ signal_stack(COMBINED32, pam)[:COMBINED32.signaling_count(M)])

    def test_many_slices_and_folds_keep_every_pair(self, monkeypatch):
        # 128 signals in slices of 256 distances, two rows at first: 39
        # slices, whose spectra wait and are folded in several times, with
        # distances met first in a fold and again in later slices
        monkeypatch.setattr(detectors, "_SLICE_CELLS", 256)
        folds, fold = [], analysis._fold

        def counted(spectrum, pending):
            folds.append(len(pending))
            return fold(spectrum, pending)

        monkeypatch.setattr(analysis, "_fold", counted)
        self._check_against_pairs(received_means(COMBINED32, PamConfig(M=4), H02.H))
        assert len(folds) >= 3 and max(folds) > 1

    @pytest.mark.parametrize("n, d, cells", [
        (128, 16, 256), (512, 16, 1 << 14), (2048, 16, 1 << 14), (40, 36, 100),
        (7, 1, 3), (1, 16, 256), (0, 16, 256)])
    def test_slices_cover_every_pair_once_within_the_budget(self, n, d, cells):
        # the slices run rows 0..n in order, each against the columns from its
        # first row on, and hold each unordered pair exactly once; a slice
        # holds at most `cells` distances and each of its parts at most
        # `cells` difference values, unless one row alone holds more
        seen, start = np.zeros((n, n), dtype=np.uint8), 0
        for sl, parts in analysis._spectrum_slices(n, d, cells):
            assert sl.start == start and sl.stop > sl.start
            start, rows, cols = sl.stop, sl.stop - sl.start, n - sl.start
            assert rows * cols <= cells or rows == 1
            assert [p.start for p in parts] + [sl.stop] == [sl.start] + [p.stop for p in parts]
            for p in parts:
                assert (p.stop - p.start) * cols * d <= cells or p.stop - p.start == 1
            i, j = np.meshgrid(np.arange(sl.start, sl.stop), np.arange(sl.start, n), indexing="ij")
            seen[i[j > i], j[j > i]] += 1
        assert start == n
        assert (seen[np.triu_indices(n, 1)] == 1).all() and seen.sum() == n * (n - 1) // 2

    def test_rows_wider_than_the_budget_keep_every_pair(self, monkeypatch):
        # 8 cells: one row of 32 distances, or of 512 difference values,
        # alone outgrows a slice, so every slice and part is a single row
        monkeypatch.setattr(detectors, "_SLICE_CELLS", 8)
        self._check_against_pairs(received_means(COMBINED32, M1, H02.H))

    def test_flattens_trailing_axes(self):
        # (n, L, L) blocks and their (n, L L) rows have one spectrum
        HS = received_means(COMBINED32, PamConfig(M=4), H02.H)
        for a, b in zip(distance_spectrum(HS), distance_spectrum(HS.reshape(len(HS), -1))):
            np.testing.assert_array_equal(a, b)

    def test_memory_follows_the_distinct_distances(self):
        # 512 signals: the (n, n) distance matrix and its five all-pairs
        # arrays peaked at 15 MB, and one (32, 512, 16) slice of differences
        # at 3.1 MB; a slice of 16 384 distances, its differences summed in
        # parts of 16 384 values, and the spectrum read 1.4 MB
        tracemalloc.start()
        try:
            ber_union_bound(COMBINED32, PamConfig(M=16), H02, np.arange(94.0, 107.0, 2.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_one_signal_has_no_bits(self):
        one = PM16.subset([0])
        for a in distance_spectrum(received_means(one, M1, H02.H)):
            assert a.shape == (0,)
        with pytest.raises(ValueError, match="bits must be positive"):
            ber_union_bound(one, M1, H02, [100.0])

    @pytest.mark.parametrize("entries, M", [((0, 5), 1), ((3,), 2)])
    def test_two_signals_closed_form(self, entries, M):
        # one pair one bit apart: the bound is Q(sqrt(d2 / 2 N0)) itself,
        # d2 = ||H (S_1 - S_0)||^2 with the levels a_m = 2m / (w (M + 1))
        book = PM16.subset(entries)
        P = book.matrix_stack
        if M == 1:
            S0, S1 = P[0], P[1]
        else:
            S0, S1 = 2 / 3 * P[0], 4 / 3 * P[0]
        d2 = float(((H02.H @ (S1 - S0)) ** 2).sum())
        d_bits = bits = 1
        grid = (96.0, 100.0, 104.0)
        want = [d_bits * qfunc(math.sqrt(d2 / (2 * n0_for_bits(db, bits)))) / bits for db in grid]
        np.testing.assert_allclose(ber_union_bound(book, PamConfig(M=M), H02, grid).values,
                                   want, rtol=1e-12, atol=0)

    def test_dominates_simulated_ml(self):
        # no inert entries in this codebook, so the union bound must sit
        # above the simulated error rate at every point
        grid = (99.0, 101.0)
        curve = ber_union_bound(COMBINED32, M1, H02, grid, scheme="c32")
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=grid, channel=H02,
                        codebook=COMBINED32, pam=M1, errors_target=400,
                        block_cap=400_000, seed=21)
        for rec, bound in zip(monte_carlo_ber(cfg, threads=2), curve.values):
            sigma = math.sqrt(max(rec.ber, 1e-12) / rec.bits)
            assert rec.ber <= bound + 3 * sigma


class TestHarnessDeterminism:
    def test_thread_count_invariance(self):
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=(97.0, 100.0),
                        channel=H02, codebook=COMBINED32, pam=M1,
                        errors_target=150, block_cap=100_000, seed=5)
        a = monte_carlo_ber(cfg, threads=1)
        b = monte_carlo_ber(cfg, threads=3)
        assert a == b

    @pytest.mark.parametrize("detector,book,mode", [
        ("iterative", "combined32", "genie"), ("bb", "cb1", "genie"),
        ("bf", "combined32", "joint"),
    ])
    def test_op_totals_thread_count_invariant(self, detector, book, mode):
        cfg = SimConfig(scheme="s", detector=detector, ebn0_grid=(96.0, 100.0),
                        channel=H02, codebook=named_codebook(book), pam=M1, weight_mode=mode,
                        errors_target=30, block_cap=3 * BATCH_BLOCKS, seed=2)
        a = monte_carlo_ber(cfg, threads=1)
        assert a == monte_carlo_ber(cfg, threads=2)
        assert all(r.ops > 0 for r in a)

    def test_seed_changes_stream(self):
        base = dict(scheme="c32", detector="ml", ebn0_grid=(98.0,), channel=H02,
                    codebook=COMBINED32, pam=M1, errors_target=50, block_cap=50_000)
        a = monte_carlo_ber(SimConfig(seed=1, **base))
        b = monte_carlo_ber(SimConfig(seed=2, **base))
        assert a[0].bit_errors != b[0].bit_errors

    def test_detector_identity_decorrelates(self):
        # same seed, different detector label -> different noise stream
        from pmvlc.analysis import _batch_rng
        cfg_ml = SimConfig(scheme="c32", detector="ml", ebn0_grid=(98.0,),
                           channel=H02, codebook=COMBINED32, pam=M1,
                           errors_target=50, block_cap=50_000, seed=9)
        r1 = _batch_rng(cfg_ml, 0, 0).integers(1 << 30)
        cfg_bf = SimConfig(scheme="c32", detector="bf", ebn0_grid=(98.0,),
                           channel=H02, codebook=COMBINED32, pam=M1,
                           errors_target=50, block_cap=50_000, seed=9)
        r2 = _batch_rng(cfg_bf, 0, 0).integers(1 << 30)
        assert r1 != r2

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_no_batch_past_the_stopping_batch(self, monkeypatch, threads):
        inner, calls = analysis._simulate_batch, []

        def counting(config, link, Y, sigma, point_idx, batch_idx):
            calls.append((point_idx, batch_idx))
            return inner(config, link, Y, sigma, point_idx, batch_idx)

        monkeypatch.setattr(analysis, "_simulate_batch", counting)
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=(90.0, 91.0),
                        channel=H02, codebook=COMBINED32, pam=M1,
                        errors_target=10, block_cap=10_000_000, seed=2)
        records = monte_carlo_ber(cfg, threads=threads)
        assert [r.blocks for r in records] == [BATCH_BLOCKS, BATCH_BLOCKS]
        assert len(calls) == sum(r.blocks for r in records) // BATCH_BLOCKS
        assert sorted(calls) == [(0, 0), (1, 0)]

    # three points of three batches each: no point stops before its block cap
    FIXED_CAP = dict(scheme="c32", detector="ml", ebn0_grid=(90.0, 91.0, 92.0), channel=H02,
                     codebook=COMBINED32, pam=M1, errors_target=10 ** 9,
                     block_cap=3 * BATCH_BLOCKS, seed=2)

    def test_one_thread_goes_round_robin_over_the_points(self, monkeypatch):
        inner, calls = analysis._simulate_batch, []

        def recording(config, link, Y, sigma, point_idx, batch_idx):
            calls.append((point_idx, batch_idx))
            return inner(config, link, Y, sigma, point_idx, batch_idx)

        monkeypatch.setattr(analysis, "_simulate_batch", recording)
        monte_carlo_ber(SimConfig(**self.FIXED_CAP), threads=1)
        assert calls == [(p, b) for b in range(3) for p in range(3)]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_one_batch_per_point_and_per_worker_in_flight(self, monkeypatch, threads):
        inner, lock = analysis._simulate_batch, threading.Lock()
        flying, most, buffers, calls = set(), [0], [], []

        def counting(config, link, Y, sigma, point_idx, batch_idx):
            with lock:
                assert point_idx not in flying
                flying.add(point_idx)
                most[0] = max(most[0], len(flying))
                buffers.append(Y)
                calls.append((point_idx, batch_idx))
            try:
                time.sleep(0.002)  # hold the batch in flight while others start
                return inner(config, link, Y, sigma, point_idx, batch_idx)
            finally:
                with lock:
                    flying.remove(point_idx)

        monkeypatch.setattr(analysis, "_simulate_batch", counting)
        cfg = SimConfig(**self.FIXED_CAP)
        records = monte_carlo_ber(cfg, threads=threads)
        workers = min(threads, len(cfg.ebn0_grid))
        assert 1 < most[0] <= workers
        # one reused buffer per worker, not one per point
        assert len({id(Y) for Y in buffers}) <= workers
        # each point's batches in order, none past the cap
        for p in range(3):
            assert [b for q, b in calls if q == p] == [0, 1, 2]
        assert records == monte_carlo_ber(cfg, threads=1)

    def test_stops_at_error_target(self):
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=(90.0,),
                        channel=H02, codebook=COMBINED32, pam=M1,
                        errors_target=10, block_cap=10_000_000, seed=2)
        rec = monte_carlo_ber(cfg)[0]
        assert rec.blocks == BATCH_BLOCKS  # noisy point: first batch suffices
        assert rec.bit_errors >= 10

    def test_block_cap_respected(self):
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=(140.0,),
                        channel=H02, codebook=COMBINED32, pam=M1,
                        errors_target=100, block_cap=2 * BATCH_BLOCKS, seed=2)
        rec = monte_carlo_ber(cfg)[0]
        assert rec.blocks == 2 * BATCH_BLOCKS
        assert rec.ber == 0.0

    @pytest.mark.parametrize("cap, batches", [(1, 1), (BATCH_BLOCKS + 1, 2)])
    def test_block_cap_rounds_up_to_whole_batches(self, cap, batches):
        # the cap is read once per batch: a point ends with the batch that reaches it
        cfg = SimConfig(scheme="c32", detector="ml", ebn0_grid=(140.0,),
                        channel=H02, codebook=COMBINED32, pam=M1,
                        errors_target=100, block_cap=cap, seed=2)
        assert monte_carlo_ber(cfg)[0].blocks == batches * BATCH_BLOCKS

    @pytest.mark.parametrize("M", [1, 4, 16])
    @pytest.mark.parametrize("book", sorted(CODEBOOKS))
    def test_guess_detector_near_half(self, book, M):
        # a uniform guess gets every label bit wrong half the time, however
        # wide the labels are (combined32 at M = 16 carries 9 bits)
        cfg = SimConfig(scheme=book, detector="guess", ebn0_grid=(100.0,),
                        channel=H02, codebook=named_codebook(book), pam=PamConfig(M=M),
                        errors_target=1, block_cap=4 * BATCH_BLOCKS, seed=6)
        rec = monte_carlo_ber(cfg)[0]
        assert rec.ber == pytest.approx(0.5, abs=0.02)

    def test_bit_distance_counts_every_label_bit(self):
        assert int(bit_distance(0, 0b111111111)) == 9
        np.testing.assert_array_equal(bit_distance(np.array([256, 511]), 0), [1, 9])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="x", detector="ml", ebn0_grid=(), channel=H02,
                      codebook=COMBINED32)
        with pytest.raises(ValueError):
            SimConfig(scheme="x", detector="ml", ebn0_grid=(100.0, 99.0),
                      channel=H02, codebook=COMBINED32)
        with pytest.raises(ValueError):
            SimConfig(scheme="x", detector="ml", ebn0_grid=(100.0,), channel=H02)
        with pytest.raises(ValueError):
            monte_carlo_ber(SimConfig(scheme="x", detector="ml", ebn0_grid=(100.0,),
                                      channel=H02, codebook=COMBINED32), threads=0)

    @pytest.mark.parametrize("setting,match", [
        ({"detector": "bf", "weight_mode": "energy"}, "unknown weight_mode"),
        ({"detector": "iterative", "e_max": 0}, "e_max must be at least 1"),
        ({"detector": "bb"}, "weight-1"),
        ({"detector": "rc", "rc": RcConfig(M=12)}, "rc M = 12"),
        ({"detector": "sm", "sm": SmConfig(M=3)}, "sm M = 3"),
        ({"detector": "ml", "seed": -1}, "seed must be non-negative"),
        ({"detector": "rc", "rc": RcConfig(L=8)}, "rc L = 8, but the channel has 4 LEDs"),
        ({"detector": "sm", "sm": SmConfig(L=8)}, "sm L = 8, but the channel has 4 LEDs"),
        # a mismatched book would fail later, inside the received-mean einsum
        ({"detector": "bf", "codebook": enumerate_weight_w(5, 1)},
         "codebook L = 5, but the channel has 4 LEDs"),
        ({"detector": "ml", "ebn0_grid": (96.0, 100.0, 100.0)}, "strictly ascending"),
    ], ids=["weight_mode", "e_max", "bb-multiweight", "rc-size", "sm-size", "seed", "rc-L",
            "sm-L", "codebook-L", "repeated-grid-point"])
    def test_rejects_bad_setting(self, setting, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**{"scheme": "x", "ebn0_grid": (100.0,), "channel": H02,
                         "codebook": COMBINED32, **setting})

    @pytest.mark.parametrize("detector", ["rc", "sm"])
    def test_baseline_size_follows_the_channel(self, detector):
        # a 4 x 8 gain matrix: eight LEDs, so the default baseline drives eight
        H = np.random.default_rng(53).uniform(0.5, 1.5, (4, 8)) * 1e-5
        cfg = SimConfig(scheme="x", detector=detector, ebn0_grid=(100.0,), channel=H,
                        errors_target=1, block_cap=BATCH_BLOCKS)
        assert getattr(cfg, detector).L == 8
        assert 0.0 <= monte_carlo_ber(cfg)[0].ber < 0.5

    def test_unknown_detector_raises(self):
        with pytest.raises(ValueError, match="unknown detector 'zf'"):
            SimConfig(scheme="x", detector="zf", ebn0_grid=(100.0,),
                      channel=H02, codebook=COMBINED32, pam=M1,
                      errors_target=1, block_cap=BATCH_BLOCKS)


class TestPerBlockCalls:
    """The benchmark's tracer counts the blind walks by wrapping the
    per-block functions the harness reaches at call time:
    analysis.iterative_sd_detect and analysis.bb_detect once per decoded
    block, detectors.murty_iter once per walk and detectors.bf_sd_detect once
    per exhaustive fallback."""

    @staticmethod
    def _wrap(monkeypatch):
        seen = {"decoded": [], "yields": 0, "fallbacks": 0}
        for name in ("iterative_sd_detect", "bb_detect"):
            def decode(*args, inner=getattr(analysis, name)):
                before = seen["fallbacks"]
                r = inner(*args)
                seen["decoded"].append((args, r, seen["fallbacks"] - before))
                return r
            monkeypatch.setattr(analysis, name, decode)
        walk, bf = detectors.murty_iter, detectors.bf_sd_detect

        def counted_walk(row):
            for a in walk(row):
                seen["yields"] += 1
                yield a

        def counted_bf(*args):
            seen["fallbacks"] += 1
            return bf(*args)

        monkeypatch.setattr(detectors, "murty_iter", counted_walk)
        monkeypatch.setattr(detectors, "bf_sd_detect", counted_bf)
        return seen

    @staticmethod
    def _run(detector, book, e_max=None):
        cfg = SimConfig(scheme="t", detector=detector, ebn0_grid=(96.0,), channel=H02,
                        codebook=book, pam=PamConfig(M=4), e_max=e_max, errors_target=1)
        (rec,) = monte_carlo_ber(cfg)
        return rec

    def test_iterative_with_fallback(self, monkeypatch):
        # e_max = 1: each walk reads one assignment, and a block falls back
        # when the best assignment is in none of its class's slot books
        seen = self._wrap(monkeypatch)
        rec = self._run("iterative", COMBINED32, e_max=1)
        table, perms = permutation_table(4)
        assert len(seen["decoded"]) == rec.blocks
        assert seen["yields"] == sum(r.iterations for _, r, _ in seen["decoded"])
        fallbacks = 0
        for (row, book, w, _), r, bf_calls in seen["decoded"]:
            first = perms[int(np.argmin((-row.Y)[np.arange(4), table].sum(axis=1)))]
            fell_back = all(first not in slot for slot in book.slot_table[w])
            assert bf_calls == fell_back
            fallbacks += fell_back
        assert seen["fallbacks"] == fallbacks > 0

    def test_bb(self, monkeypatch):
        seen = self._wrap(monkeypatch)
        rec = self._run("bb", named_codebook("cb1"))
        assert len(seen["decoded"]) == rec.blocks
        assert seen["yields"] == seen["fallbacks"] == 0
        assert any(r.q is None for _, r, _ in seen["decoded"])


class TestReceivedBuffer:
    """Each worker receives all of its batches into one buffer, which must
    hold bit for bit what a fresh means[tx] + rng.normal(0, sigma) array
    held."""

    @pytest.mark.parametrize("detector,book,M", [
        ("ml", "combined32", 16), ("bf", "full24", 4), ("rc", None, 1), ("sm", None, 1),
    ])
    def test_reused_buffer_is_the_fresh_draw(self, monkeypatch, detector, book, M):
        seen, build = [], analysis._link

        def recording_link(config):
            link = build(config)

            def decode(Y, tx, rng):
                seen.append((Y, Y.copy(), tx.copy()))
                return link.decode(Y, tx, rng)

            return dataclasses.replace(link, decode=decode)

        monkeypatch.setattr(analysis, "_link", recording_link)
        cfg = SimConfig(scheme="s", detector=detector, ebn0_grid=(94.0, 100.0), channel=H02,
                        codebook=named_codebook(book) if book else None, pam=PamConfig(M=M),
                        errors_target=10 ** 9, block_cap=3 * BATCH_BLOCKS, seed=4)
        monte_carlo_ber(cfg)  # one thread, round robin: (0, 0), (1, 0), (0, 1), (1, 1), ...
        assert len(seen) == 6
        link = build(cfg)
        means, bits = link.means, link.bits
        for k, (_, Y, tx) in enumerate(seen):
            batch, point = divmod(k, 2)
            rng = analysis._batch_rng(cfg, point, batch)
            want_tx = rng.integers(len(means), size=BATCH_BLOCKS)
            sigma = np.sqrt(n0_for_bits(cfg.ebn0_grid[point], bits) / 2.0)
            want = means[want_tx] + rng.normal(0.0, sigma, size=(BATCH_BLOCKS, *means.shape[1:]))
            np.testing.assert_array_equal(tx, want_tx)
            np.testing.assert_array_equal(Y.view(np.int64), want.view(np.int64))
        # one buffer per in-flight batch, and one thread runs one at a time
        assert all(buf is seen[0][0] for buf, _, _ in seen)


class TestHarnessLabelRule:
    """A blind decision is the signal index q M + m - 1, with entry q from the
    decoder and level m from the harness's one slice per batch, or -1 where
    the decoder makes none.  _simulate_batch counts a decision of -1 or of
    2**bits and above as the loss of every bit of its block."""

    H06 = build_channel(square_grid_geometry(tx_spacing=0.6))

    @pytest.mark.parametrize("detector,book,q,want", [
        ("bf", "full24", 20, 39), ("iterative", "full24", 20, 39), ("bb", "cb1", None, -1),
    ])
    def test_undecided_or_unlabelled_block_loses_every_bit(self, detector, book, q, want):
        cb, pam = named_codebook(book), PamConfig(M=2)
        config = SimConfig(scheme=book, detector=detector, ebn0_grid=(400.0,), channel=self.H06,
                           codebook=cb, pam=pam, calibration=self.H06.H)
        link = analysis._link(config)
        bits = cb.bits_per_block(pam.M)
        # full24 signals 32 of its 48 (entry, level) pairs, so entry 20 at
        # level 2 is index 39, past every label; cb1 lacks the identity
        # permutation, which dominates the bb search on an identity block
        S = self.H06.H @ (pam_intensity(2, 2, 1) * cb.matrix_stack[q - 1] if q else np.eye(4))
        rx, _ = link.decode(S[None], np.zeros(1, dtype=np.int64), None)
        assert rx.tolist() == [want] and not 0 <= want < 2 ** bits == len(link.means)
        off = dataclasses.replace(link, decode=lambda Y, tx, rng: link.decode(
            np.broadcast_to(S, Y.shape), tx, rng))
        Y = np.empty((BATCH_BLOCKS, *link.means.shape[1:]))
        errors, blocks, _ = analysis._simulate_batch(config, off, Y, math.sqrt(1e-40 / 2), 0, 0)
        assert errors == bits * blocks
        # and the noiseless block of each sent index decodes to that index
        exact = dataclasses.replace(link, decode=lambda Y, tx, rng: link.decode(
            link.means[tx], tx, rng))
        assert analysis._simulate_batch(config, exact, Y, math.sqrt(1e-40 / 2), 0, 0)[0] == 0

    def test_zero_gain_channel_runs_at_level_one(self):
        # the receiver outside every LED's field of view: sum(H) = 0, so the
        # CSI level scale carries no level and every block decides level 1
        H = build_channel(square_grid_geometry(tx_spacing=0.6, rx_offset_x=3.0))
        assert not H.H.any()
        pam = PamConfig(M=4)
        for det in ("bf", "iterative"):
            cfg = SimConfig(scheme="c32", detector=det, ebn0_grid=(100.0,), channel=H,
                            codebook=COMBINED32, pam=pam, errors_target=1,
                            block_cap=BATCH_BLOCKS, calibration=H.H, weight_mode="joint")
            link = analysis._link(cfg)
            Y = np.random.default_rng(3).normal(0.0, 1e-5, (8, 4, 4))
            rx, _ = link.decode(Y, np.zeros(8, dtype=np.int64), None)
            assert (rx % pam.M == 0).all()
            assert 0.3 < monte_carlo_ber(cfg)[0].ber < 0.7


class TestBlindLevelScale:
    """Blind runs at M > 1 scale the level by each batch's mean block sum,
    in place of the channel's sum(H) that a CSI run uses."""

    H06 = build_channel(square_grid_geometry(tx_spacing=0.6))

    def _run(self, calibration):
        # same scheme label, detector and seed: both runs draw the same noise
        cfg = SimConfig(scheme="c32", detector="bf", ebn0_grid=(90.0, 96.0, 102.0),
                        channel=self.H06, codebook=COMBINED32, pam=PamConfig(M=4),
                        errors_target=200, block_cap=200_000, seed=5,
                        calibration=calibration)
        return monte_carlo_ber(cfg)

    def test_blind_matches_csi_on_the_06_grid(self):
        bits = COMBINED32.bits_per_block(4)
        compared = []
        for blind, csi in zip(self._run(None), self._run(self.H06.H)):
            if not 1e-4 <= csi.ber <= 1e-1:
                continue
            # errors come in per-block clusters of at most `bits`
            s3 = 3.0 * math.hypot(*(math.sqrt(max(r.bit_errors, 1) * bits) / r.bits
                                    for r in (blind, csi)))
            assert abs(blind.ber - csi.ber) <= s3, \
                f"{csi.ebn0_db} dB: blind {blind.ber:.3e}, csi {csi.ber:.3e}, 3 sigma {s3:.3e}"
            compared.append(csi.ebn0_db)
        assert len(compared) >= 2, compared


def _noisy_blocks(codebook, pam, ebn0_db, n, seed):
    """Sent signal indices and received blocks, drawn as the harness does."""
    rng = np.random.default_rng(seed)
    bits = codebook.bits_per_block(pam.M)
    HS = np.einsum("ij,kjl->kil", H02.H, signal_stack(codebook, pam)[:2 ** bits])
    tx = rng.integers(len(HS), size=n)
    n0 = n0_for_bits(ebn0_db, bits)
    return tx, HS[tx] + rng.normal(0.0, math.sqrt(n0 / 2), size=(n, 4, 4))


class TestBatchPathsMatchScalarDetectors:
    """Each batch kernel the harness decodes with must agree with a
    brute-force statement of its decision rule, and bf's with its per-block
    form, on identical inputs."""

    def test_ml_batch_matches_scalar(self):
        pam = PamConfig(M=2)
        tx, Y = _noisy_blocks(COMBINED32, pam, 99.0, 64, seed=77)
        HS = np.einsum("ij,kjl->kil", H02.H, signal_stack(COMBINED32, pam))
        got = ml_detect_batch(Y, HS, pam.M)
        for b in range(len(tx)):
            best, best_res = None, np.inf
            for q in range(COMBINED32.size):
                for m in range(1, pam.M + 1):
                    a = pam_intensity(m, pam.M, int(COMBINED32.weight_array[q]))
                    res = float(((Y[b] - H02.H @ (a * COMBINED32.matrix_stack[q])) ** 2).sum())
                    if res < best_res:
                        best, best_res = q * pam.M + (m - 1), res
            assert got[b] == best

    def test_bf_batch_matches_scalar(self):
        pam = PamConfig(M=2)
        tx, Y = _noisy_blocks(COMBINED32, pam, 99.0, 64, seed=78)
        tx_w = COMBINED32.weight_array[tx // pam.M]
        g = H02.H.sum()
        q = bf_detect_batch(Y, COMBINED32, tx_w)
        m = estimate_intensity_batch(Y, pam, g)
        for b in range(len(tx)):
            cls = np.flatnonzero(COMBINED32.weight_array == tx_w[b])
            sums = [-(Y[b] * COMBINED32.matrix_stack[i]).sum() for i in cls]
            pick = int(cls[int(np.argmin(sums))])
            assert q[b] == pick
            assert m[b] == estimate_intensity_batch(Y[b][None], pam, g)[0]
            r = bf_sd_detect(Y[b], COMBINED32, int(tx_w[b]))
            assert q[b] == r.q - 1

    def test_rc_batch_matches_scalar(self):
        cfg = RcConfig()
        rng = np.random.default_rng(79)
        n0 = n0_for_bits(100.0, cfg.bits)
        means = cfg.signals @ H02.H.T
        Y = means[rng.integers(16, size=128)] + rng.normal(0.0, math.sqrt(n0 / 2), size=(128, 4))
        totals = Y.sum(axis=1)
        gains = float(H02.H.sum())
        levels = np.array([cfg.level(m) * gains for m in range(1, 17)])
        want = np.argmin(np.abs(totals[:, None] - levels[None, :]), axis=1)
        np.testing.assert_array_equal(rc_detect_batch(Y, H02, cfg), want)

    def test_sm_batch_matches_scalar(self):
        cfg = SmConfig()
        rng = np.random.default_rng(80)
        n0 = n0_for_bits(100.0, cfg.bits)
        means = cfg.signals @ H02.H.T
        Y = means[rng.integers(16, size=128)] + rng.normal(0.0, math.sqrt(n0 / 2), size=(128, 4))
        want = np.argmin(((Y[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)
        np.testing.assert_array_equal(sm_detect_batch(Y, H02, cfg), want)

    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    @pytest.mark.parametrize("spacing", [0.2, 0.6])
    def test_sm_means_are_led_columns_at_each_level(self, M, spacing):
        # the received means the harness sends and sm_detect_batch scores
        # are bit for bit level(m) H[:, k], LED-major
        H = H02.H if spacing == 0.2 else build_channel(square_grid_geometry(tx_spacing=0.6)).H
        cfg = SmConfig(L=4, M=M)
        per_led = np.stack([cfg.level(m) * H[:, k] for k in range(4) for m in range(1, M + 1)])
        np.testing.assert_array_equal(cfg.signals @ H.T, per_led)
        np.testing.assert_array_equal(analysis._link(SimConfig(
            scheme="sm", detector="sm", ebn0_grid=(100.0,), channel=H, sm=cfg)).means, per_led)


def _brute_nearest(Y, HS):
    """Difference-form oracle: argmin of ||Y - HS_k||^2, ties to the lowest k."""
    d = Y.reshape(len(Y), 1, -1) - HS.reshape(1, len(HS), -1)
    return np.argmin((d ** 2).sum(axis=2), axis=1)


class TestNearestMeanKernel:
    """ml_detect_batch slices each entry's level in closed form; its decisions
    must match the difference form at physical scale, on truncated alphabets
    and on channels with dead LEDs."""

    PAM16 = PamConfig(M=16)

    def _means(self):
        return np.einsum("ij,kjl->kil", H02.H, signal_stack(COMBINED32, self.PAM16))

    def test_matches_difference_form_at_physical_scale(self):
        HS = self._means()
        assert len(HS) == 512
        _, Y = _noisy_blocks(COMBINED32, self.PAM16, 100.0, 256, seed=81)
        assert 1e-6 < np.abs(Y).mean() < 1e-3  # received values are ~1e-4
        np.testing.assert_array_equal(ml_detect_batch(Y, HS, 16), _brute_nearest(Y, HS))

    @pytest.mark.parametrize("book, M", [("combined32", 3), ("full24", 1), ("full24", 3)])
    def test_truncated_alphabet(self, book, M):
        # only the first 2**bits (entry, level) pairs signal: combined32 at
        # M = 3 keeps 64 of 96, so its last entry carries one level
        cb, pam = named_codebook(book), PamConfig(M=M)
        tx, Y = _noisy_blocks(cb, pam, 94.0, 2048, seed=84)
        HS = np.einsum("ij,kjl->kil", H02.H, signal_stack(cb, pam)[:2 ** cb.bits_per_block(M)])
        if (book, M) == ("combined32", 3):
            assert len(HS) % M == 1
        # noisy blocks at the last entry's levels past the alphabet, which an
        # unclipped slice would decide; the noise breaks the exact ties of
        # the symmetric h02 channel
        far = Y[:3] - HS[tx[:3]] + HS[-1][None] * np.array([2.0, 3.0, 5.0])[:, None, None]
        Y = np.concatenate([Y, far])
        got = ml_detect_batch(Y, HS, M)
        assert got.max() < len(HS)
        np.testing.assert_array_equal(got, _brute_nearest(Y, HS))

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_sm_with_dead_leds(self, M):
        # fig5-x04's channel: two LEDs reach no photodiode, so their level-1
        # means have zero energy
        H = build_channel(square_grid_geometry(tx_spacing=0.6, rx_offset_x=0.4)).H
        assert (np.abs(H).sum(axis=0) == 0).sum() == 2
        cfg = SmConfig(L=4, M=M)
        means = cfg.signals @ H.T
        rng = np.random.default_rng(85)
        for db in (80.0, 95.0, 110.0):
            n0 = n0_for_bits(db, cfg.bits)
            Y = means[rng.integers(len(means), size=1024)] + rng.normal(
                0.0, math.sqrt(n0 / 2), size=(1024, 4))
            np.testing.assert_array_equal(sm_detect_batch(Y, H, cfg), _brute_nearest(Y, means))

    def test_ties_break_to_the_lowest_index(self):
        # integer data keeps every score exact; level-1 means (2, 0), (0, 2)
        # and a dead entry, three levels each
        U = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        HS = (np.arange(1, 4)[None, :, None] * U[:, None, :]).reshape(-1, 2)
        Y = np.array([
            [3.0, 0.0],   # half-way between levels 1 and 2 of entry 0
            [0.0, 5.0],   # half-way between levels 2 and 3 of entry 1
            [3.0, 3.0],   # entries 0 and 1 score the same at level 1
            [1.0, 0.0],   # entry 0 at level 1 and the dead entry score the same
            [0.0, 0.0],   # the dead entry alone is nearest
        ])
        want = [0, 4, 0, 0, 6]
        np.testing.assert_array_equal(_brute_nearest(Y, HS), want)
        np.testing.assert_array_equal(ml_detect_batch(Y, HS, 3), want)

    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("book", sorted(CODEBOOKS))
    def test_signal_rows_lie_on_level_lines(self, book, M):
        # the kernel's premise: row q M + m - 1 is m times row q M
        S = signal_stack(named_codebook(book), PamConfig(M=M)).reshape(-1, M, 16)
        np.testing.assert_allclose(S, np.arange(1, M + 1)[None, :, None] * S[:, :1],
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("M", [2, 4, 8, 16])
    def test_sm_rows_lie_on_level_lines(self, M):
        S = SmConfig(L=4, M=M).signals.reshape(4, M, 4)
        np.testing.assert_allclose(S, np.arange(1, M + 1)[None, :, None] * S[:, :1],
                                   rtol=1e-15, atol=0)

    def test_batch_memory_stays_at_one_score_matrix(self):
        # the old (4096, 512) score matrix alone was 17 MB, and whole-batch
        # (4096, 32) correlation and level arrays peaked at 3 MB; the kernel
        # holds one (rows, 32) slice of each, 128 KB
        HS = self._means()
        Y = np.random.default_rng(82).normal(1e-4, 1e-5, size=(BATCH_BLOCKS, 4, 4))
        tracemalloc.start()
        try:
            ml_detect_batch(Y, HS, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024

    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("book", ["combined32", "full24"])
    def test_row_slices_match_difference_form(self, book, M):
        # batches of one block, one short of a slice, one slice, one past it
        # and a harness batch of several slices
        cb, pam = named_codebook(book), PamConfig(M=M)
        HS = np.einsum("ij,kjl->kil", H02.H, signal_stack(cb, pam)[:2 ** cb.bits_per_block(M)])
        rows = detectors._SLICE_CELLS // -(-len(HS) // M)
        assert 1 < rows < BATCH_BLOCKS // 2
        _, Y = _noisy_blocks(cb, pam, 96.0, BATCH_BLOCKS, seed=86)
        want = np.concatenate([_brute_nearest(Y[s:s + 256], HS) for s in range(0, len(Y), 256)])
        for B in (1, rows - 1, rows, rows + 1, BATCH_BLOCKS):
            got = ml_detect_batch(Y[:B], HS, M)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want[:B])

    def test_accepts_vectors(self):
        rng = np.random.default_rng(83)
        y = rng.normal(size=(64, 4))
        HS = (np.arange(1, 5)[None, :, None] * rng.normal(size=(16, 1, 4))).reshape(-1, 4)
        np.testing.assert_array_equal(ml_detect_batch(y, HS, 4), _brute_nearest(y, HS))


class TestCsvWriters:
    def test_ber_csv_format(self, tmp_path):
        rec = BerRecord(scheme="c32", detector="ml", ebn0_db=100.0,
                        ber=1.25e-3, bit_errors=200, bits=160000,
                        blocks=32000, seed=42)
        path = tmp_path / "ber.csv"
        write_ber_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scheme,detector,ebn0_db,ber,bit_errors,bits,blocks,seed"
        assert lines[1] == "c32,ml,100.0000,1.2500000000e-03,200,160000,32000,42"

    def test_bound_csv_format(self, tmp_path):
        curve = BoundCurve("c32", (100.0, 102.0), (1e-3, 1e-4))
        path = tmp_path / "bound.csv"
        write_bound_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scheme,ebn0_db,bound"
        assert lines[1] == "c32,100.0000,1.0000000000e-03"
        assert lines[2] == "c32,102.0000,1.0000000000e-04"

    def test_rerun_byte_identical(self, tmp_path):
        # at M = 4 the blind level scale is each batch's own mean block sum
        for pam in (M1, PamConfig(M=4)):
            cfg = SimConfig(scheme="c32", detector="bf", ebn0_grid=(98.0, 100.0),
                            channel=H02, codebook=COMBINED32, pam=pam,
                            errors_target=60, block_cap=50_000, seed=13)
            p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
            write_ber_csv(monte_carlo_ber(cfg, threads=1), p1)
            write_ber_csv(monte_carlo_ber(cfg, threads=4), p2)
            assert p1.read_bytes() == p2.read_bytes()
