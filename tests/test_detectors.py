"""Detector behavior: exact recovery without noise, documented tie rules,
decision-equality guarantees, the measured divergence of the greedy search, and
the assignment ranking the iterative walk follows, against brute force.
"""

import inspect
import math
from itertools import permutations, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmvlc import analysis, channel, detectors
from pmvlc.analysis import SimConfig
from pmvlc.channel import build_channel, fixture_h02, square_grid_geometry
from pmvlc.codebook import (
    ENUMERATION_MAX_L,
    combine_codebooks,
    enumerate_weight_w,
    permutation_table,
)
from pmvlc.detectors import (
    RcConfig,
    SmConfig,
    bb_detect,
    bb_rows,
    bf_sd_detect,
    classify_weight_batch,
    estimate_intensity_batch,
    iterative_rows,
    iterative_sd_detect,
    ml_detect_batch,
    ml_op_count,
    murty_iter,
    rank_assignments,
    rc_detect_batch,
    signal_stack,
    sm_detect_batch,
)
from pmvlc.scenarios import CODEBOOKS, named_codebook
from pmvlc.txcodec import PamConfig, pam_intensity

H02 = fixture_h02().H
H06 = build_channel(square_grid_geometry(tx_spacing=0.6)).H
FULL24 = enumerate_weight_w(4, 1)
W2FULL = enumerate_weight_w(4, 2)
W2LEX8 = W2FULL.subset(range(8), label="w2lex8")
# Spread-component selection: all sixteen slot codewords distinct, so the
# assignment walk can gather at most two candidate rows per block.
W2SEL_IDX = (2, 17, 28, 38, 45, 59, 65, 80)
W2SEL8 = W2FULL.subset(W2SEL_IDX, label="w2sel8")
COMBINED32 = combine_codebooks([FULL24, W2SEL8], label="combined32")
M1 = PamConfig(M=1)


def block_for(codebook, q, m, pam):
    a = pam_intensity(m, pam.M, int(codebook.weight_array[q - 1]))
    return a * codebook.matrix_stack[q - 1]


def component(codebook, i, slot=0):
    # 1-based symbols of entry i's component in the given slot
    return tuple((permutation_table(codebook.L)[0][codebook.components[i, slot]] + 1).tolist())


def perm_codebook(perms):
    # the weight-1 entries of the given permutations, in the given order
    book = FULL24.subset(map(permutation_table(4)[1].index, perms), label="restricted")
    assert [component(book, i) for i in range(book.size)] == list(perms)
    return book


def batch_of_one(Y):
    return np.asarray(Y, dtype=np.float64)[None]


def ranking(C):
    # every assignment of one cost matrix, walked from its row of the batch
    # ranking: the rows rank the assignments of -Y, and -(-C) is C exactly
    return murty_iter(next(iterative_rows(-batch_of_one(C))))


def iterative_one(Y, codebook, w, e_max=None):
    # one block decoded from its row of a batch of one
    return iterative_sd_detect(next(iterative_rows(batch_of_one(Y))), codebook, w, e_max)


def bb_one(Y, codebook):
    return bb_detect(next(bb_rows(batch_of_one(Y), codebook)), codebook)


def brute_force_all(C):
    # Exhaustive oracle: every assignment with its cost, sorted by
    # (cost, column tuple).
    n = C.shape[0]
    out = []
    for perm in permutations(range(n)):
        cost = float(sum(C[i, perm[i]] for i in range(n)))
        out.append((cost, tuple(p + 1 for p in perm)))
    out.sort()
    return out


def bb_reference(Y, L):
    # The node-by-node search that bb_detect replaces with its closed form:
    # each free column is scored with the path cost, its entry and the sum of
    # the submatrix left below, and every node's additions are counted.
    # Returns the chosen columns (1-based) and that count.
    yhat = -np.asarray(Y, dtype=np.float64)
    ops = 0
    used: list[int] = []
    free = list(range(L))
    path_cost = 0.0
    for row in range(L):
        best_col, best_score = -1, np.inf
        for col in free:
            rest = [c for c in free if c != col]
            bound = float(yhat[row + 1:, rest].sum()) if row + 1 < L else 0.0
            score = path_cost + float(yhat[row, col]) + bound
            ops += 1 + (L - row - 1) * len(rest)
            if score < best_score:
                best_col, best_score = col, score
        used.append(best_col)
        free.remove(best_col)
        path_cost += float(yhat[row, best_col])
    return tuple(c + 1 for c in used), ops


def reference_ranking(C):
    # One matrix's (cost, column tuple) ranking, gathered and sorted on its
    # own: all n! costs summed along each permutation's row, then a stable
    # sort.  Yields (perm, cost).
    n = len(C)
    table, perms = permutation_table(n)
    total = np.asarray(C, dtype=np.float64)[np.arange(n), table].sum(axis=1)
    for i in np.argsort(total, kind="stable").tolist():
        yield perms[i], float(total[i])


def iterative_reference(Y, codebook, w, e_max=None):
    # iterative_sd_detect as it was before the codebook cached its lookup
    # tables and the harness built per-batch tables: each slot's walk ranks
    # the block's assignments afresh, the member dict (weight 1) or the
    # per-slot component sets are rebuilt from the codebook's arrays on every
    # block, and the candidates are scored by their support sums, taken over
    # the candidates' matrices alone.  Returns ((q, iterations, op_count),
    # whether the exhaustive fallback decided).
    Y = np.asarray(Y, dtype=np.float64)
    yhat = -Y
    L = codebook.L
    idx = np.flatnonzero(codebook.weight_array == w)
    budget = e_max if e_max is not None else len(idx)

    def walk(members):
        tries = 0
        for perm, _ in reference_ranking(yhat):
            tries += 1
            if perm in members:
                return perm, tries
            if tries >= budget:
                break
        return None, tries

    iterations = ops = 0
    if w == 1:
        members = {component(codebook, i): int(i) for i in idx}
        perm, tries = walk(set(members))
        iterations += tries
        ops += tries * (L ** 3 + L)
        if perm is not None:
            return (members[perm] + 1, iterations, ops), False
    else:
        candidates = set()
        for slot in range(w):
            slot_perms = {component(codebook, i, slot) for i in idx}
            perm, tries = walk(slot_perms)
            iterations += tries
            ops += tries * (L ** 3 + L)
            if perm is not None:
                candidates.update(int(i) for i in idx if component(codebook, i, slot) == perm)
        if candidates:
            cand = sorted(candidates)
            pick = int(np.argmin(-np.einsum("ij,qij->q", Y, codebook.matrix_stack[cand])))
            ops += len(cand) * w * L
            return (cand[pick] + 1, iterations, ops), False
    res = bf_sd_detect(Y, codebook, w)
    return (res.q, iterations, res.op_count + ops), True


CB1 = perm_codebook([(4, 3, 2, 1), (4, 1, 3, 2), (3, 1, 2, 4), (3, 4, 1, 2),
                     (2, 4, 3, 1), (2, 1, 4, 3), (2, 3, 1, 4), (1, 3, 4, 2)])


def label(value, width):
    return tuple((value >> k) & 1 for k in reversed(range(width)))


def ml_index(Y, H, codebook, pam):
    """Whole-book ML decision on one block: the index (q-1) M + (m-1) of the
    nearest of all size * M received means, data-carrying or not."""
    HS = np.einsum("ij,kjl->kil", H, signal_stack(codebook, pam))
    return int(ml_detect_batch(np.asarray(Y, dtype=np.float64)[None], HS, pam.M)[0])


class TestMlDetect:
    def test_zero_noise_roundtrip_combined32(self):
        for q in range(1, COMBINED32.size + 1):
            Y = H02 @ block_for(COMBINED32, q, 1, M1)
            assert ml_index(Y, H02, COMBINED32, M1) == q - 1

    def test_identity_channel_small_noise(self):
        rng = np.random.default_rng(3)
        eye = np.eye(4)
        for q in (1, 7, 20):
            Y = block_for(FULL24, q, 1, M1) + rng.normal(0, 1e-6, (4, 4))
            assert ml_index(Y, eye, FULL24, M1) == q - 1

    def test_tie_resolves_to_lowest_q(self):
        eye = np.eye(4)
        Y = 0.5 * (block_for(FULL24, 3, 1, M1) + block_for(FULL24, 9, 1, M1))
        assert ml_index(Y, eye, FULL24, M1) == 2

    def test_intensity_levels_recovered(self):
        pam = PamConfig(M=4)
        for q in (1, 30):
            for m in range(1, 5):
                Y = H02 @ block_for(COMBINED32, q, m, pam)
                assert ml_index(Y, H02, COMBINED32, pam) == (q - 1) * 4 + (m - 1)

    def test_op_count_model(self):
        assert ml_op_count(24, 4) == 384
        assert ml_op_count(16, 4) == 16 * 16

    def test_bits_match_mapping(self):
        # the decision is the signal index, whose big-endian bits are the label
        Y = H02 @ block_for(COMBINED32, 5, 1, M1)
        k = ml_index(Y, H02, COMBINED32, M1)
        assert label(k, COMBINED32.bits_per_block(1)) == (0, 0, 1, 0, 0)  # 4 of 32

    def test_bits_none_outside_signaling_subset(self):
        # full24 with M=1 signals 16 of 24 entries; the whole-book means
        # still decode entry 20, which carries no label
        Y = H02 @ block_for(FULL24, 20, 1, M1)
        k = ml_index(Y, H02, FULL24, M1)
        assert k == 19 and k >= FULL24.signaling_count(1)


class TestBfSd:
    def test_identity_channel_exact(self):
        # entries past signaling_count decode too; the harness counts such a
        # decision as all bits lost (test_analysis.TestHarnessLabelRule)
        for q in range(1, 25):
            r = bf_sd_detect(FULL24.matrix_stack[q - 1], FULL24, 1)
            assert r.q == q

    def test_fixture_diagonal_is_columnwise_maximal(self):
        # the property that makes blind detection exact without noise
        for col in range(4):
            column = H02[:, col]
            assert column[col] == pytest.approx(column.max())
            assert np.sum(column == column.max()) == 1

    @pytest.mark.parametrize("codebook,weight", [
        (FULL24, 1), (W2LEX8, 2), (W2SEL8, 2), (W2FULL, 2),
        (enumerate_weight_w(4, 3), 3),
    ])
    def test_zero_noise_recovery(self, codebook, weight):
        for q in range(1, codebook.size + 1):
            Y = H02 @ block_for(codebook, q, 1, M1)
            r = bf_sd_detect(Y, codebook, weight)
            assert r.q == q and r.w == weight

    def test_decision_is_the_smallest_negated_support_sum(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(0, 1, (4, 4))
        r = bf_sd_detect(Y, FULL24, 1)
        sums = [-np.sum(Y * S) for S in FULL24.matrix_stack]
        assert r.q == int(np.argmin(sums)) + 1

    @given(scale=st.floats(0.1, 100.0), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_decision_invariant_to_positive_scaling(self, scale, shift):
        rng = np.random.default_rng(11)
        Y = rng.normal(0, 1, (4, 4))
        base = bf_sd_detect(Y, FULL24, 1).q
        assert bf_sd_detect(scale * Y, FULL24, 1).q == base
        # uniform shifts cancel across equal-weight supports too
        assert bf_sd_detect(Y + shift, FULL24, 1).q == base

    def test_genie_weight_restricts_search(self):
        Y = H02 @ block_for(COMBINED32, 1, 1, M1)  # a weight-1 block
        r = bf_sd_detect(Y, COMBINED32, 2)
        assert r.w == 2 and COMBINED32.weight_array[r.q - 1] == 2
        with pytest.raises(ValueError, match="not all in codebook"):
            bf_sd_detect(Y, COMBINED32, 3)

    def test_op_count_linear_in_class_size(self):
        Y = H02 @ block_for(FULL24, 1, 1, M1)
        assert bf_sd_detect(Y, FULL24, 1).op_count == 24 * 1 * 4
        sub8 = FULL24.subset(range(8), label="sub8")
        assert bf_sd_detect(Y, sub8, 1).op_count == 8 * 1 * 4

    @pytest.mark.parametrize("cells", [None, 100])
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_best_support_is_the_einsum_argmax(self, monkeypatch, name, scale, cells):
        # noisy h02 blocks of every entry, in several slices (at the package's
        # slice size, and at 100 cells, a few rows each): every class's pick
        # is the argmax of the whole-batch einsum of the support sums
        if cells:
            monkeypatch.setattr(detectors, "_SLICE_CELLS", cells)
        book, rng = named_codebook(name), np.random.default_rng(47)
        q = rng.integers(book.size, size=1500)
        Y = H02 @ book.matrix_stack[q] / H02.max()
        Y = scale * (Y + rng.normal(0, 0.3, Y.shape))
        for w in book.weights_present:
            stack = book.matrix_stack[book.weight_class_indices(w)]
            want = np.argmax(np.einsum("bij,qij->bq", Y, stack), axis=1)
            np.testing.assert_array_equal(detectors._best_support(Y, stack), want)

    def test_best_support_ties_go_to_the_lowest_row(self):
        # a constant block scores every entry of a class alike, in every
        # slice; a block that is the sum of entries 3 and 7 scores those two
        # alike, above the rest
        for book in (FULL24, W2SEL8, COMBINED32):
            for w in book.weights_present:
                stack = book.matrix_stack[book.weight_class_indices(w)]
                for value in (1.0, 0.25):
                    got = detectors._best_support(np.full((1500, 4, 4), value), stack)
                    assert not got.any()
        stack = FULL24.matrix_stack
        sums = np.einsum("ij,qij->q", stack[3] + stack[7], stack)
        assert sums[3] == sums[7] == sums.max() and (sums == sums.max()).sum() == 2
        got = detectors._best_support(np.repeat((stack[3] + stack[7])[None], 5, axis=0), stack)
        assert got.tolist() == [3] * 5

    def test_best_support_products_stay_within_a_slice(self, monkeypatch):
        # each support-sum product holds at most _SLICE_CELLS cells, and the
        # slices cover the batch
        products, inner = [], np.matmul

        def recording(a, b, **kw):
            out = inner(a, b, **kw)
            products.append(out.shape)
            return out

        monkeypatch.setattr(np, "matmul", recording)
        rng = np.random.default_rng(9)
        Y = rng.normal(0, 1, (3000, 4, 4))
        for book in (FULL24, COMBINED32, W2SEL8):
            products.clear()
            got = detectors._best_support(Y, book.matrix_stack)
            assert len(got) == len(Y) and len(products) >= 2
            assert all(r * q <= detectors._SLICE_CELLS and q == book.size for r, q in products)
            assert sum(r for r, _ in products) == len(Y)


class TestEstimateIntensity:
    def test_m1_unconditional(self):
        # M = 1 returns level 1 without reading Y or the scale, even a
        # non-finite Y and no scale at all
        Y = np.full((3, 4, 4), np.nan)
        np.testing.assert_array_equal(estimate_intensity_batch(Y, M1, None), 1)

    @staticmethod
    def _every_block(H, pam):
        # every noiseless (entry, level) block of combined32, both weights
        qm = [(q, m) for q in range(1, COMBINED32.size + 1) for m in range(1, pam.M + 1)]
        return np.stack([H @ block_for(COMBINED32, q, m, pam) for q, m in qm]), [m for _, m in qm]

    @pytest.mark.parametrize("M", [2, 4])
    def test_csi_mode_inverts_exactly(self, M):
        # the known channel's sum(H) decodes every block, on a near-uniform
        # and a far-from-uniform channel
        pam = PamConfig(M=M)
        for H in (H02, H06):
            Y, levels = self._every_block(H, pam)
            np.testing.assert_array_equal(estimate_intensity_batch(Y, pam, H.sum()), levels)

    def test_blind_mode_default_gain_close_enough(self):
        # with no calibration the scale is the batch's mean block sum, which
        # equals sum(H) over uniform labels (analysis._link); it decodes
        # every block, up to M = 16
        for H in (H02, H06):
            for M in (2, 16):
                pam = PamConfig(M=M)
                Y, levels = self._every_block(H, pam)
                blind = float(Y.sum()) / len(Y)
                np.testing.assert_allclose(blind, H.sum(), rtol=1e-12)
                np.testing.assert_array_equal(estimate_intensity_batch(Y, pam, blind), levels)

    # a unit gain matrix: sum(H) = 16, so level m sums to 16 * 2m / (M + 1)
    def test_midpoint_ties_to_lower_level(self):
        pam = PamConfig(M=4)
        step = pam_intensity(1, 4, 1)
        Y = np.full((1, 4, 4), 1.5 * step)
        assert estimate_intensity_batch(Y, pam, 16.0)[0] == 1
        assert estimate_intensity_batch(Y * (1 + 1e-6), pam, 16.0)[0] == 2

    def test_clipping(self):
        pam = PamConfig(M=4)
        Y = np.stack([np.diag([99.0] * 4), np.diag([-99.0] * 4)])
        np.testing.assert_array_equal(estimate_intensity_batch(Y, pam, 16.0), [4, 1])

    def test_decoders_need_the_scale_above_one_level(self):
        # the level kernels never estimate sum(H) from a block of their own,
        # and the blind decoders take no level inputs at all: the harness
        # decides the level once per batch (analysis._link)
        pam = PamConfig(M=4)
        Y = H02 @ block_for(FULL24, 3, 2, pam)
        with pytest.raises(ValueError, match="M = 4 needs gain_sum"):
            estimate_intensity_batch(Y[None], pam, None)
        assert estimate_intensity_batch(Y[None], pam, H02.sum())[0] == 2
        with pytest.raises(ValueError, match="needs gain_sum"):
            classify_weight_batch(Y[None], COMBINED32, pam)
        side = {"pam", "true_weight", "weight_mode", "calibration", "gain_sum"}
        for decoder in (detectors.bf_detect_batch, bf_sd_detect, iterative_sd_detect, bb_detect):
            assert not side & set(inspect.signature(decoder).parameters), decoder.__name__


def test_default_profile_loaded_once(monkeypatch):
    # joint classification reads the h02 profile; repeated decisions must
    # not parse the fixture file again
    loads = []
    real = channel._load_fixture
    monkeypatch.setattr(channel, "_load_fixture", lambda name: loads.append(name) or real(name))
    channel.fixture_h02.cache_clear()
    try:
        pam = PamConfig(M=4)
        for q in (1, 25, 32):
            Y = (H02 @ block_for(COMBINED32, q, 3, pam))[None]
            classify_weight_batch(Y, COMBINED32, pam, gain_sum=H02.sum())
    finally:
        channel.fixture_h02.cache_clear()
    assert loads == ["h02.txt"]


class TestClassifyWeight:
    @staticmethod
    def harness_weights(monkeypatch, Y, tx, pam, mode="genie", calibration=None):
        # the weight class per block that the harness (analysis._link) hands
        # the bf kernel for one batch
        seen, inner = [], analysis.bf_detect_batch
        monkeypatch.setattr(analysis, "bf_detect_batch",
                            lambda Yb, book, w: seen.append(w) or inner(Yb, book, w))
        cfg = SimConfig(scheme="t", detector="bf", ebn0_grid=(100.0,), channel=H02,
                        codebook=COMBINED32, pam=pam, weight_mode=mode, calibration=calibration)
        analysis._link(cfg).decode(Y, np.asarray(tx, dtype=np.int64), None)
        (w,) = seen
        return w

    def test_genie_passthrough(self, monkeypatch):
        # genie: the sent entry's weight, looked up from the signal index
        # (entry q - 1 = index // M) whatever was received
        for M, tx, want in ((1, [25, 3, 31], [2, 1, 2]), (4, [0, 97, 95, 127], [1, 2, 1, 2])):
            Y = np.zeros((len(tx), 4, 4))
            got = self.harness_weights(monkeypatch, Y, tx, PamConfig(M=M))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, COMBINED32.weight_array[np.array(tx) // M])
            monkeypatch.undo()

    def test_genie_rule_is_the_harness_lookup(self, monkeypatch):
        # the kernel is the joint rule alone; a genie weight depends on the
        # sent index only, so blocks that the joint rule reads as weight 1
        # still go to weight 2 when weight-2 entries were sent
        assert not {"mode", "true_weight"} & set(inspect.signature(classify_weight_batch).parameters)
        Y = np.stack([H02 @ block_for(COMBINED32, 1, 1, M1)] * 3)
        tx = [24, 30, 0]
        np.testing.assert_array_equal(
            self.harness_weights(monkeypatch, Y, tx, M1, calibration=H02), [2, 2, 1])
        monkeypatch.undo()
        np.testing.assert_array_equal(
            self.harness_weights(monkeypatch, Y, tx, M1, "joint", calibration=H02), [1, 1, 1])

    def test_single_weight_shortcut(self):
        got = classify_weight_batch(np.zeros((2, 4, 4)), FULL24, M1)
        np.testing.assert_array_equal(got, 1)

    def test_noiseless_classification(self):
        pam = PamConfig(M=2)
        Y = np.stack([H02 @ block_for(COMBINED32, q, 2, pam)
                      for q in range(1, COMBINED32.size + 1)])
        got = classify_weight_batch(Y, COMBINED32, pam, calibration=H02, gain_sum=H02.sum())
        np.testing.assert_array_equal(got, COMBINED32.weight_array)

    def test_joint_with_default_profile(self):
        pam = PamConfig(M=1)
        qs = (1, 25, 32)
        Y = np.stack([H02 @ block_for(COMBINED32, q, 1, pam) for q in qs])
        got = classify_weight_batch(Y, COMBINED32, pam)
        np.testing.assert_array_equal(got, COMBINED32.weight_array[np.array(qs) - 1])

    def test_unknown_mode(self):
        # genie and joint are the only weight rules, and the harness's
        # config is where a rule is named
        with pytest.raises(ValueError, match="unknown weight_mode 'oracle'"):
            SimConfig(scheme="t", detector="bf", ebn0_grid=(100.0,), channel=H02,
                      codebook=COMBINED32, weight_mode="oracle")

    def test_joint_row_slices_match_the_whole_batch_rule(self, monkeypatch):
        # each class's support pick and residual run in row slices; every
        # decision must be the whole-batch rule's, across several slices
        pam, n = PamConfig(M=4), 1500
        rng = np.random.default_rng(83)
        S = signal_stack(COMBINED32, pam)
        tx = rng.integers(len(S), size=n)
        Y = np.einsum("ij,kjl->kil", H06, S[tx])
        Y += H06.mean() * rng.choice([0.05, 0.3, 1.0], size=(n, 1, 1)) * rng.normal(size=Y.shape)
        g = float(H06.sum())
        m = estimate_intensity_batch(Y, pam, g)
        residuals = []
        for w in COMBINED32.weights_present:
            stack = COMBINED32.matrix_stack[COMBINED32.weight_class_indices(w)]
            P = stack[np.argmin(-np.einsum("bij,qij->bq", Y, stack), axis=1)]
            a = pam_intensity(m, pam.M, w)
            residuals.append(((Y - H06 @ (a[:, None, None] * P)) ** 2).sum(axis=(1, 2)))
        want = np.array(COMBINED32.weights_present)[np.argmin(residuals, axis=0)]
        rows, inner = [], detectors._best_support
        monkeypatch.setattr(detectors, "_best_support",
                            lambda Yb, stack: rows.append(len(Yb)) or inner(Yb, stack))
        got = classify_weight_batch(Y, COMBINED32, pam, calibration=H06, gain_sum=g)
        np.testing.assert_array_equal(got, want)
        # both classes are chosen, and the noise moves some blocks across
        assert set(got.tolist()) == {1, 2}
        assert (got != COMBINED32.weight_array[tx // pam.M]).any()
        assert len(rows) >= 3 * 2 and max(rows) <= detectors._SLICE_CELLS // COMBINED32.size
        # only genie and joint exist, even where one class needs no decision
        for book in (COMBINED32, FULL24):
            with pytest.raises(ValueError, match="unknown weight_mode 'energy'"):
                SimConfig(scheme="t", detector="bf", ebn0_grid=(100.0,), channel=H06,
                          codebook=book, weight_mode="energy")

    def test_joint_batch_matches_per_block_rule(self):
        # per block: one level from the block sum, then the best support in
        # each class and its residual at that level against the h02 profile;
        # the strict < keeps the lowest weight on ties
        pam = PamConfig(M=2)
        rng = np.random.default_rng(31)
        qs = rng.integers(1, COMBINED32.size + 1, size=64)
        Y = np.stack([H02 @ block_for(COMBINED32, int(q), 2, pam) for q in qs])
        Y = Y + rng.normal(0, 2e-5, Y.shape)
        got = classify_weight_batch(Y, COMBINED32, pam, gain_sum=H02.sum())
        for b in range(len(Y)):
            best_w, best_res = None, np.inf
            m = estimate_intensity_batch(Y[b][None], pam, H02.sum())[0]
            for w in (1, 2):
                stack = COMBINED32.matrix_stack[COMBINED32.weight_array == w]
                P = stack[int(np.argmin([-(Y[b] * S).sum() for S in stack]))]
                res = float(((Y[b] - H02 @ (pam_intensity(m, 2, w) * P)) ** 2).sum())
                if res < best_res:
                    best_w, best_res = w, res
            assert got[b] == best_w

    def test_joint_ties_go_to_lowest_weight(self):
        # a zero reference profile makes every class residual equal to |Y|^2
        Y = np.random.default_rng(37).normal(0, 1, (16, 4, 4))
        got = classify_weight_batch(Y, COMBINED32, M1, calibration=np.zeros((4, 4)))
        np.testing.assert_array_equal(got, 1)


class TestBbDetect:
    def test_rejects_multiweight(self):
        with pytest.raises(ValueError):
            bb_one(np.zeros((4, 4)), COMBINED32)

    def test_dominant_diagonal_gives_identity(self):
        r = bb_one(10.0 * np.eye(4), FULL24)
        assert r.q == 1  # (1,2,3,4) is the first entry in lexicographic order

    def test_zero_noise_recovery_through_fixture(self):
        for q in range(1, 25):
            Y = H02 @ block_for(FULL24, q, 1, M1)
            assert bb_one(Y, FULL24).q == q

    @given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_always_a_valid_permutation(self, Y):
        r = bb_one(Y, FULL24)
        perm = component(FULL24, r.q - 1)
        assert sorted(perm) == [1, 2, 3, 4]

    def test_nonmember_result_has_no_decision(self):
        # CB1 lacks the identity permutation, which dominates this input
        Y = H02 @ np.eye(4)
        r = bb_one(Y, CB1)
        assert r.q is None and r.w == 1

    def test_divergence_from_exact_assignment_is_measurable(self):
        # the single-survivor tree is greedy: it finds the true optimum on
        # roughly half of unstructured inputs, and that is a feature we
        # document rather than repair
        rng = np.random.default_rng(2026)
        diverged = 0
        trials = 400
        for _ in range(trials):
            Y = rng.normal(0, 1, (4, 4))
            r = bb_one(Y, FULL24)
            opt = next(ranking(-Y))
            diverged += component(FULL24, r.q - 1) != opt.perm
        assert 0.3 < diverged / trials < 0.6


    # The closed form sums in another order, so only float near-ties could
    # move a decision, and random inputs have none.
    @pytest.mark.parametrize("L", [4, 5])
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_closed_form_matches_node_search(self, L, scale):
        book = FULL24 if L == 4 else enumerate_weight_w(5, 1)
        rng = np.random.default_rng(L)
        for _ in range(500):
            Y = scale * rng.normal(0, 1, (L, L))
            r = bb_one(Y, book)
            perm, ops = bb_reference(Y, L)
            assert component(book, r.q - 1) == perm
            assert r.op_count == ops

    def test_op_count_is_the_node_search_total(self):
        # f (1 + (f-1)^2) additions for f = 4, 3, 2, 1 free columns
        assert bb_one(np.zeros((4, 4)), FULL24).op_count == 40 + 15 + 4 + 1

    def test_ties_go_to_the_lowest_column(self):
        # small integers sum exactly in any order, so equal scores are exact ties
        rng = np.random.default_rng(43)
        for _ in range(500):
            Y = rng.integers(-1, 2, (4, 4)).astype(np.float64)
            r = bb_one(Y, FULL24)
            perm, _ = bb_reference(Y, 4)
            assert component(FULL24, r.q - 1) == perm

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_blocks(self, bad):
        Y = H02 @ block_for(FULL24, 3, 1, M1)
        Y[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            bb_one(Y, FULL24)

    def test_closed_form_matches_node_search_on_noisy_fixture_blocks(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            q = int(rng.integers(1, 25))
            Y = H02 @ block_for(FULL24, q, 1, M1) + rng.normal(0, 2e-5, (4, 4))
            r = bb_one(Y, FULL24)
            perm, ops = bb_reference(Y, 4)
            assert (component(FULL24, r.q - 1), r.op_count) == (perm, ops)


class TestIterativeSd:
    def test_full_codebook_terminates_first_iteration(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            Y = rng.normal(0, 1, (4, 4))
            r = iterative_one(Y, FULL24, 1)
            assert r.iterations == 1
            assert component(FULL24, r.q - 1) == next(ranking(-Y)).perm

    def test_cost_equals_bf_on_restricted_codebook(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            Y = H02 @ block_for(CB1, int(rng.integers(1, 9)), 1, M1)
            Y = Y + rng.normal(0, 2e-5, (4, 4))
            bf = bf_sd_detect(Y, CB1, 1)
            it = iterative_one(Y, CB1, 1)
            assert it.q == bf.q

    @pytest.mark.parametrize("L, step", [(5, 7), (6, 23)])
    def test_weight_one_decision_is_bf_past_length_four(self, L, step):
        # the theorem in iterative_sd_detect's docstring on restricted books
        # of 18 and 32 codewords: with a budget of L! the walk always reaches
        # a member, so every decision is the walk's, and the noise sends many
        # walks past their first assignment, some past the class size
        book = enumerate_weight_w(L, 1)
        book = book.subset(range(0, book.size, step), label=f"L{L}-restricted")
        rng = np.random.default_rng(L)
        q = rng.integers(book.size, size=300)
        Y = book.matrix_stack[q] + rng.normal(0, 0.8, (len(q), L, L))
        iterations = []
        for y, row in zip(Y, iterative_rows(Y)):
            it = iterative_sd_detect(row, book, 1, math.factorial(L))
            assert it.q == bf_sd_detect(y, book, 1).q
            iterations.append(it.iterations)
        assert sum(i > 1 for i in iterations) > len(Y) // 3
        assert max(iterations) > book.size

    @pytest.mark.parametrize("codebook", [W2LEX8, W2SEL8, W2FULL])
    def test_zero_noise_multiweight_recovery(self, codebook):
        for q in range(1, codebook.size + 1):
            Y = H02 @ block_for(codebook, q, 1, M1)
            r = iterative_one(Y, codebook, 2)
            assert r.q == q

    def test_combined_codebook_roundtrip_with_genie(self):
        for q in range(1, COMBINED32.size + 1):
            w = int(COMBINED32.weight_array[q - 1])
            Y = H02 @ block_for(COMBINED32, q, 1, M1)
            r = iterative_one(Y, COMBINED32, w)
            assert (r.q, r.w) == (q, w)

    def test_fallback_recovers_bf_decision(self):
        Y = H02 @ np.eye(4)
        r = iterative_one(Y, CB1, 1, e_max=1)
        assert r.q == bf_sd_detect(Y, CB1, 1).q

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            Y = rng.normal(0, 1, (4, 4))
            r = iterative_one(Y, CB1, 1, e_max=3)
            assert r.iterations <= 3

    def test_rejects_weight_outside_codebook(self):
        with pytest.raises(ValueError, match="weight 2 not in codebook"):
            iterative_one(np.zeros((4, 4)), CB1, 2)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            iterative_one(np.zeros((4, 4)), CB1, 1, e_max=0)

    # Physical-scale noise from a near-certain hit to frequent misses; e_max
    # = 1 reaches the exhaustive fallback, and joint mode picks the weight
    # that both decoders are given.
    @pytest.mark.parametrize("book, M, e_max, mode", [
        (COMBINED32, 1, None, "genie"), (COMBINED32, 4, 2, "genie"), (COMBINED32, 1, None, "joint"),
        (W2SEL8, 1, None, "genie"), (W2SEL8, 1, 1, "genie"), (FULL24, 2, None, "genie"),
        (CB1, 1, None, "genie"), (CB1, 4, 1, "genie"),
    ], ids=["combined32", "combined32-M4-emax2", "combined32-joint", "w2sel8", "w2sel8-emax1",
            "full24-M2", "cb1", "cb1-M4-emax1"])
    def test_matches_per_block_reference(self, book, M, e_max, mode):
        pam = PamConfig(M=M)
        rng = np.random.default_rng(M + (e_max or 0) + book.size)
        fallbacks = 0
        for sigma in (5e-6, 2e-5, 6e-5):
            for _ in range(100):
                q, m = int(rng.integers(1, book.size + 1)), int(rng.integers(1, M + 1))
                w = int(book.weight_array[q - 1])
                Y = H02 @ block_for(book, q, m, pam) + rng.normal(0, sigma, (4, 4))
                if mode == "joint":
                    w = int(classify_weight_batch(Y[None], book, pam, gain_sum=H02.sum())[0])
                r = iterative_one(Y, book, w, e_max)
                want, fell_back = iterative_reference(Y, book, w, e_max)
                assert (r.q, r.iterations, r.op_count) == want
                assert r.w == w
                fallbacks += fell_back
        if e_max == 1:
            assert fallbacks > 0

    def test_op_count_independent_of_class_size_on_immediate_hits(self):
        # a decode that terminates at the first assignment costs the same
        # whether the codebook holds 8 or 24 permutations
        Y = H02 @ block_for(FULL24, 1, 1, M1)
        sub = FULL24.subset(range(8), label="sub")
        a = iterative_one(Y, FULL24, 1).op_count
        b = iterative_one(Y, sub, 1).op_count
        assert a == b


class TestBatchTables:
    """The harness decodes iterative and bb blocks from per-batch tables
    (iterative_rows, bb_rows); each block's decision must be the one the
    per-block references make."""

    BOOKS = {"w2sel8": (W2SEL8, "genie"), "combined32": (COMBINED32, "genie"),
             "combined32-joint": (COMBINED32, "joint"), "cb1": (CB1, "genie"),
             "full24": (FULL24, "genie")}

    @pytest.mark.parametrize("e_max", [None, 1, 2])
    @pytest.mark.parametrize("where", ["h02", "grid06"])
    @pytest.mark.parametrize("name", list(BOOKS))
    def test_harness_decode_matches_per_block_reference(self, monkeypatch, name, where, e_max):
        # noise from a near-certain first hit to frequent misses; e_max = 1 and
        # 2 force the exhaustive fallback, which no preset reaches
        book, mode = self.BOOKS[name]
        H = H02 if where == "h02" else H06
        pam = PamConfig(M=4)
        cfg = SimConfig(scheme="t", detector="iterative", ebn0_grid=(100.0,), channel=H,
                        codebook=book, pam=pam, weight_mode=mode,
                        calibration=H if mode == "joint" else None, e_max=e_max)
        seen, inner = [], analysis.iterative_sd_detect

        def recorded(row, codebook, w, budget):
            r = inner(row, codebook, w, budget)
            seen.append((row.Y, w, r))
            return r

        monkeypatch.setattr(analysis, "iterative_sd_detect", recorded)
        link = analysis._link(cfg)
        rng = np.random.default_rng(len(name) + 7 * (e_max or 0))
        tx = rng.integers(len(link.means), size=384)
        sigma = H.mean() * np.array([0.05, 0.2, 0.5])[np.arange(len(tx)) % 3]
        Y = link.means[tx] + sigma[:, None, None] * rng.normal(size=link.means[tx].shape)
        rx, ops = link.decode(Y, tx, rng)
        assert len(seen) == len(tx)
        # the weight class per block: the sent entry's under genie, which the
        # harness looks up itself, else the joint rule's
        want_w = (book.weight_array[tx // pam.M] if mode == "genie"
                  else classify_weight_batch(Y, book, pam, H, float(H.sum())))
        assert [w for _, w, _ in seen] == want_w.tolist()
        fallbacks = 0
        for (y, w, r), label in zip(seen, rx.tolist()):
            want, fell_back = iterative_reference(y, book, w, e_max)
            assert (r.q, r.iterations, r.op_count) == want
            assert r.w == w and label // pam.M == r.q - 1
            fallbacks += fell_back
        assert ops == sum(r.op_count for _, _, r in seen)
        if e_max == 1 and book is not FULL24:  # full24's first assignment is always a member
            assert fallbacks > 0

    @pytest.mark.parametrize("book", [FULL24, CB1], ids=["full24", "cb1"])
    def test_bb_matches_node_search_on_a_noisy_batch(self, book):
        rng = np.random.default_rng(47)
        q = rng.integers(1, book.size + 1, size=4096)
        Y = np.einsum("ij,bjl->bil", H02, book.matrix_stack[q - 1])
        Y = Y + rng.normal(0, 2e-5, Y.shape)
        self._check_bb(Y, book)

    def test_bb_matches_node_search_on_exact_ties(self):
        # small integers sum exactly in any order, so equal scores are exact ties
        Y = np.random.default_rng(53).integers(-1, 2, (1024, 4, 4)).astype(np.float64)
        self._check_bb(Y, FULL24)
        self._check_bb(Y, CB1)

    def test_bb_matches_node_search_on_a_mixed_batch(self):
        # bb_rows walks a slice at a time: over three slices and more, noisy
        # cb1 blocks (many walks end outside cb1), exact integer ties and an
        # all-zero block, interleaved
        rng = np.random.default_rng(79)
        n = 3 * detectors._SLICE_BLOCKS + 50
        q = rng.integers(1, CB1.size + 1, size=n)
        Y = np.einsum("ij,bjl->bil", H02, CB1.matrix_stack[q - 1]) + rng.normal(0, 6e-5, (n, 4, 4))
        Y[1::3] = rng.integers(-1, 2, Y[1::3].shape)
        Y[n // 2] = 0.0
        assert self._check_bb(Y, CB1) > 0

    @staticmethod
    def _check_bb(Y, book):
        # full24 holds every permutation, so its q names the chosen columns;
        # cb1 adds the no-decision outcome (q None).  Returns the number of
        # blocks without a decision.
        members = {component(book, i): i + 1 for i in range(book.size)}
        rows = list(bb_rows(Y, book))
        assert len(rows) == len(Y)
        undecided = want_undecided = 0
        for y, row in zip(Y, rows):
            r = bb_detect(row, book)
            perm, ops = bb_reference(y, book.L)
            assert row == perm
            assert (r.q, r.w, r.iterations, r.op_count) == (members.get(perm), 1, book.L, ops)
            undecided += r.q is None
            want_undecided += perm not in members
        assert undecided == want_undecided
        return undecided

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_non_finite_block_rejects_the_batch(self, bad):
        Y = np.random.default_rng(59).normal(0, 1, (300, 4, 4))
        for b in (0, 137, 299):
            Yb = Y.copy()
            Yb[b, 3, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                list(bb_rows(Yb, FULL24))
            with pytest.raises(ValueError, match="finite"):
                list(iterative_rows(Yb))

    def test_overflowing_column_sums_reject_the_batch(self):
        # finite values whose column sums overflow would score the free
        # columns +inf, level with the taken ones
        Y = np.random.default_rng(60).normal(0, 1, (300, 4, 4))
        Y[137] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            list(bb_rows(Y, FULL24))

    def test_batch_rank_matches_each_matrix(self):
        # leading axes are kept
        C = np.random.default_rng(61).normal(size=(3, 500, 4, 4))
        order, total = rank_assignments(C)
        assert order.shape == total.shape == (3, 500, 24)
        perms = permutation_table(4)[1]
        for k in (0, 1, 2):
            for b in range(0, 500, 7):
                ranked = [(perms[i], total[k, b, i]) for i in order[k, b].tolist()]
                assert ranked == list(reference_ranking(C[k, b]))

    def test_one_ranking_per_slice(self, monkeypatch):
        # every weight slot walks its block's one ranking, made per slice of
        # the batch; 1100 blocks span several slices
        calls, inner = [], detectors.rank_assignments
        monkeypatch.setattr(detectors, "rank_assignments",
                            lambda C: calls.append(np.shape(C)) or inner(C))
        rng = np.random.default_rng(67)
        q = rng.integers(24, 32, size=1100)
        Y = np.einsum("ij,bjl->bil", H02, COMBINED32.matrix_stack[q])
        Y = Y + rng.normal(0, 6e-5, Y.shape)
        got, _ = analysis._decisions(map(iterative_sd_detect, iterative_rows(Y),
                                         repeat(COMBINED32), repeat(2)))
        n = detectors._SLICE_BLOCKS
        assert calls == [(min(n, len(Y) - s), 4, 4) for s in range(0, len(Y), n)]
        assert len(calls) > 1
        want = [iterative_reference(y, COMBINED32, 2)[0][0] - 1 for y in Y]
        assert got.tolist() == want


    @pytest.mark.parametrize("name", ["combined32", "w2sel8", "w2full", "w3full", "L6w2"])
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_component_totals_sum_to_the_support_metric(self, name, scale):
        # a multiweight candidate's score is the sum of its components'
        # ranking totals; it equals the entry's negated support sum from the
        # full product, across several slices, to rtol 1e-12 (and 1e-12 of
        # the scale, as a sum near zero keeps no relative precision).
        # w3full checks the three-component sums of the L = 4, w = 3 class
        book = {"combined32": COMBINED32, "w2sel8": W2SEL8, "w2full": W2FULL,
                "w3full": enumerate_weight_w(4, 3), "L6w2": enumerate_weight_w(6, 2)}[name]
        w = max(book.weights_present)
        rng = np.random.default_rng(71)
        n = 600 if book.L == 4 else 16
        q = rng.integers(book.size, size=n)
        Y = scale * (book.matrix_stack[q] + rng.normal(0, 0.3, (n, book.L, book.L)))
        full = -np.einsum("bij,qij->bq", Y, book.matrix_stack)
        totals = np.array([row.total for row in iterative_rows(Y)])
        parts = detectors._walk_plan(book, w, None)[3]
        idx = book.weight_class_indices(w)
        assert sorted(parts) == idx.tolist()
        got = totals[:, [parts[i] for i in idx.tolist()]].sum(axis=2)
        np.testing.assert_allclose(got, full[:, idx], rtol=1e-12, atol=1e-12 * scale)


class TestEmptyBatch:
    """A batch of 0 blocks gives empty results from every batch kernel."""

    Y = np.empty((0, 4, 4))
    KERNELS = {
        "ml-M1": lambda Y: ml_detect_batch(
            Y, np.einsum("ij,kjl->kil", H02, signal_stack(COMBINED32, M1)), 1),
        "ml-M16": lambda Y: ml_detect_batch(
            Y, np.einsum("ij,kjl->kil", H02, signal_stack(COMBINED32, PamConfig(M=16))), 16),
        "sm": lambda Y: sm_detect_batch(Y[:, 0], H02, SmConfig()),
        "rc": lambda Y: rc_detect_batch(Y[:, 0], H02, RcConfig()),
        "bf": lambda Y: detectors.bf_detect_batch(Y, COMBINED32, np.empty(0, dtype=np.int64)),
        "level": lambda Y: estimate_intensity_batch(Y, PamConfig(M=16), float(H02.sum())),
        # the genie weights are the harness's lookup: its decode of no blocks
        "weight-genie": lambda Y: analysis._link(SimConfig(
            scheme="t", detector="bf", ebn0_grid=(100.0,), channel=H02, codebook=COMBINED32,
            pam=PamConfig(M=16), calibration=H02)).decode(Y, np.empty(0, dtype=np.int64), None)[0],
        "weight-joint": lambda Y: classify_weight_batch(
            Y, COMBINED32, PamConfig(M=16), H02, float(H02.sum())),
    }

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_kernel_returns_an_empty_int_array(self, kernel):
        got = self.KERNELS[kernel](self.Y)
        assert got.shape == (0,) and got.dtype == np.int64

    def test_row_builders_yield_nothing(self):
        assert list(iterative_rows(self.Y)) == []
        assert list(bb_rows(self.Y, CB1)) == []


class TestAssignmentRanking:
    def test_two_by_two_example(self):
        a = next(ranking([[1.0, 2.0], [2.0, 4.0]]))
        assert a.perm == (2, 1)
        assert a.cost == pytest.approx(4.0)

    def test_identity_favoring_matrix(self):
        a = next(ranking(np.ones((4, 4)) - np.eye(4)))
        assert a.perm == (1, 2, 3, 4)
        assert a.cost == pytest.approx(0.0)

    def test_all_equal_ties_resolve_lexicographically(self):
        assert next(ranking(np.ones((4, 4)))).perm == (1, 2, 3, 4)

    def test_crafted_tie(self):
        # Two optima of cost 2: (1,2,3) and (2,1,3); the smaller tuple wins.
        C = np.array([[0.0, 0.0, 9.0], [0.0, 0.0, 9.0], [9.0, 9.0, 2.0]])
        assert next(ranking(C)).perm == (1, 2, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force_on_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            C = rng.normal(size=(n, n))
            best_cost, best_perm = brute_force_all(C)[0]
            a = next(ranking(C))
            assert a.cost == pytest.approx(best_cost, abs=1e-9)
            assert a.perm == best_perm

    def test_matches_scipy(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        for _ in range(100):
            C = rng.normal(size=(5, 5))
            rows, cols = linear_sum_assignment(C)
            assert next(ranking(C)).cost == pytest.approx(float(C[rows, cols].sum()), abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            rank_assignments(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_costs(self, bad):
        C = np.eye(3)
        C[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            rank_assignments(C)

    def test_two_by_two_full_order(self):
        out = list(ranking([[1.0, 2.0], [2.0, 4.0]]))
        assert [a.perm for a in out] == [(2, 1), (1, 2)]
        assert [a.cost for a in out] == [pytest.approx(4.0), pytest.approx(5.0)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_enumeration_matches_brute_force(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            C = rng.normal(size=(n, n))
            assert [(a.cost, a.perm) for a in ranking(C)] == brute_force_all(C)

    def test_iterator_is_lazy_and_complete(self):
        C = np.arange(16.0).reshape(4, 4)
        it = ranking(C)
        first = next(it)
        assert (first.cost, first.perm) == brute_force_all(C)[0]
        assert len(list(it)) == 23

    def test_physical_scale_near_ties_keep_cost_order(self):
        # Received values are ~1e-4, so assignment costs are ~4e-4; plant a
        # runner-up 5e-10 above the optimum, inside a unit-floored tolerance.
        rng = np.random.default_rng(2024)
        for _ in range(300):
            C = rng.uniform(0.0, 4e-4, size=(4, 4))
            ranked = brute_force_all(C)
            (c1, p1), (c2, p2) = ranked[0], ranked[1]
            r = next(i for i in range(4) if p1[i] != p2[i])
            C[r, p2[r] - 1] -= (c2 - c1) - 5e-10
            assert [(a.cost, a.perm) for a in ranking(C)] == brute_force_all(C)

    def test_rejects_sizes_above_enumeration_limit(self, monkeypatch):
        def no_table(n):
            raise AssertionError("permutation table built")

        monkeypatch.setattr(detectors, "permutation_table", no_table)
        n = ENUMERATION_MAX_L + 1
        with pytest.raises(ValueError, match="at most"):
            rank_assignments(np.zeros((n, n)))


class TestBaselines:
    """Row v of each baseline's `signals` is the symbol labelled v."""

    def test_rc_roundtrip_all_symbols(self):
        cfg = RcConfig(L=4, M=16)
        assert cfg.signals.shape == (16, 4)
        got = rc_detect_batch(cfg.signals @ H02.T, H02, cfg)
        np.testing.assert_array_equal(got, np.arange(16))

    def test_sm_roundtrip_all_symbols(self):
        cfg = SmConfig(L=4, M=4)
        assert cfg.signals.shape == (16, 4)
        got = sm_detect_batch(cfg.signals @ H02.T, H02, cfg)
        np.testing.assert_array_equal(got, np.arange(16))

    def test_rc_slot_power_matches_mean_intensity(self):
        cfg = RcConfig(L=4, M=16)
        totals = cfg.signals.sum(axis=1)
        assert np.all(np.diff(totals) > 0)  # row v is level v + 1
        assert np.mean(totals) == pytest.approx(1.0)

    def test_sm_single_active_led(self):
        # the leading bits pick the LED, the trailing bits the level
        cfg = SmConfig(L=4, M=4)
        for value, s in enumerate(cfg.signals):
            assert np.flatnonzero(s).tolist() == [value // 4]
            assert s[value // 4] == pytest.approx(pam_intensity(value % 4 + 1, 4, 1))

    def test_rc_requires_power_of_two(self):
        with pytest.raises(ValueError):
            RcConfig(L=4, M=12).bits

    def test_sm_requires_power_of_two(self):
        with pytest.raises(ValueError):
            SmConfig(L=3, M=4).bits
