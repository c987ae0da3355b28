"""End-to-end acceptance checks, one test per shipped claim.

Each test name carries its criterion number, so a verbose run prints one
pass/fail line per criterion.  Monte Carlo assertions state their tolerance
(3 sigma unless noted) next to the comparison.  Error counts are sized so
every check clears its tolerance with margin on a desktop CPU.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pmvlc.analysis import SimConfig, ber_union_bound, monte_carlo_ber
from pmvlc.channel import build_channel, fixture_h02, square_grid_geometry
from pmvlc.cli import main
from pmvlc.codebook import combine_codebooks, enumerate_weight_w
from pmvlc.detectors import (
    RcConfig,
    SmConfig,
    bf_sd_detect,
    classify_weight_batch,
    estimate_intensity_batch,
    iterative_rows,
    iterative_sd_detect,
    ml_detect_batch,
    murty_iter,
    signal_stack,
)
from pmvlc.scenarios import named_codebook
from pmvlc.txcodec import PamConfig, pam_intensity

H02 = fixture_h02()


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _run(detector, grid, codebook=None, *, M=1, rc=None, sm=None, channel=H02,
         errors_target=200, block_cap=400_000, seed=11, threads=2):
    cfg = SimConfig(scheme="acc", detector=detector, ebn0_grid=tuple(grid),
                    channel=channel, codebook=codebook, pam=PamConfig(M=M),
                    rc=rc, sm=sm, errors_target=errors_target,
                    block_cap=block_cap, seed=seed)
    return monte_carlo_ber(cfg, threads=threads)


def _sigma(record, bits_per_block: int) -> float:
    # errors arrive in per-block clusters of at most bits_per_block, so the
    # binomial deviation is inflated by the cluster size
    errors = max(record.bit_errors, 1)
    return math.sqrt(errors * bits_per_block) / record.bits


def _crossing_db(records, level: float) -> float:
    points = [(r.ebn0_db, r.ber) for r in records]
    for (d0, b0), (d1, b1) in zip(points, points[1:]):
        if b0 >= level >= b1 > 0.0:
            t = (math.log10(level) - math.log10(b0)) / (math.log10(b1) - math.log10(b0))
            return d0 + t * (d1 - d0)
    raise AssertionError(f"no {level:g} crossing inside grid {points}")


def _block(codebook, q, m, pam):
    a = pam_intensity(m, pam.M, int(codebook.weight_array[q - 1]))
    return a * codebook.matrix_stack[q - 1]


def _iterative(Y, codebook, w):
    # one block decoded from its row of a batch of one, as the harness builds them
    return iterative_sd_detect(next(iterative_rows(Y[None], codebook)), codebook, w)


def test_criterion_01_codebook_counts():
    sizes = {w: enumerate_weight_w(4, w).size for w in (1, 2, 3)}
    combined = combine_codebooks([enumerate_weight_w(4, w) for w in (1, 2, 3)])
    ok = sizes == {1: 24, 2: 90, 3: 24} and combined.size == 138 \
        and combined.bits_per_block(1) == 7
    _verdict(1, ok, f"counts {sizes}, combined {combined.size}, "
                    f"{combined.bits_per_block(1)} bits/block")
    assert sizes == {1: 24, 2: 90, 3: 24}
    assert combined.size == 138
    assert combined.bits_per_block(1) == 7


def _derangement_count(L: int) -> int:
    # the paper's count of codewords at distance L from one codeword,
    # L! * sum_{k=0..L} (-1)^k / k!, in exact integers
    return sum((-1) ** k * (math.factorial(L) // math.factorial(k)) for k in range(L + 1))


def test_criterion_02_derangement_formula():
    results = {}
    for L in range(2, 8):
        ref = tuple(range(1, L + 1))
        brute = sum(
            all(p[i] != ref[i] for i in range(L))
            for p in itertools.permutations(ref))
        results[L] = (_derangement_count(L), brute)
    ok = all(formula == brute for formula, brute in results.values())
    _verdict(2, ok, f"formula==brute for L=2..7: {[v[0] for v in results.values()]}")
    for L, (formula, brute) in results.items():
        assert formula == brute, f"L={L}: {formula} != {brute}"


def test_criterion_03_zero_noise_roundtrip():
    books = ["full24", "pm16", "w2lex8", "w2sel8", "combined32", "cb1", "cb2"]
    checked = 0
    for name in books:
        cb = named_codebook(name)
        for M in (1, 2):
            pam = PamConfig(M=M)
            # every (entry, level) mean, so non-signalling pairs decode too;
            # sum(H) is the blind harness's scale at zero noise, uniform levels
            HS = np.einsum("ij,kjl->kil", H02.H, signal_stack(cb, pam))
            g = H02.H.sum()
            for q in range(1, cb.size + 1):
                w = int(cb.weight_array[q - 1])
                for m in range(1, M + 1):
                    Y = H02.H @ _block(cb, q, m, pam)
                    got = int(ml_detect_batch(Y[None], HS, M)[0])
                    assert got == (q - 1) * M + (m - 1), f"ml {name} M={M} q={q} m={m}"
                    # the blind decoders pick the entry; the level is the harness's
                    # side decision, and so is the joint weight
                    level = int(estimate_intensity_batch(Y[None], pam, g)[0])
                    assert level == m, f"level {name} M={M} q={q} m={m}"
                    got = bf_sd_detect(Y, cb, w)
                    assert got.q == q, f"bf {name} M={M} q={q} m={m}"
                    got = _iterative(Y, cb, w)
                    assert got.q == q, f"it {name} M={M} q={q} m={m}"
                    if len(cb.weights_present) > 1:
                        joint = int(classify_weight_batch(Y[None], cb, "joint", pam,
                                                          gain_sum=g)[0])
                        got = bf_sd_detect(Y, cb, joint)
                        assert (joint, got.q) == (w, q), f"joint {name} M={M} q={q}"
                    checked += 1
    _verdict(3, True, f"{checked} (book, q, m) roundtrips exact for ml/bf/iterative")


def test_criterion_04_assignment_oracle():
    rng = np.random.default_rng(5)
    for L in (3, 4, 5):
        perms = np.array(list(itertools.permutations(range(L))))
        C = rng.random((1000, L, L))
        best = np.array([
            min(Ck[np.arange(L), p].sum() for p in perms) for Ck in C])
        # the rows rank the assignments of -Y, and -(-C) is C exactly
        first = np.array([next(murty_iter(row)).cost for row in iterative_rows(-C)])
        np.testing.assert_allclose(first, best, rtol=0, atol=1e-9)
    for L in (3, 4):
        for _ in range(50):
            Ck = rng.random((L, L))
            ranked = [(a.cost, a.perm) for a in murty_iter(next(iterative_rows(-Ck[None])))]
            brute = sorted((float(sum(Ck[i, p[i]] for i in range(L))),
                            tuple(c + 1 for c in p))
                           for p in itertools.permutations(range(L)))
            assert len(ranked) == math.factorial(L)
            assert ranked == brute
    _verdict(4, True, "first ranked assignment==exhaustive minimum on 3000 matrices; "
                      "full ranking==brute-force (cost, column tuple) sort")


def test_criterion_05_sd_cost_exactness():
    rng = np.random.default_rng(17)
    pam = PamConfig()
    n0 = 2.5e-11  # mid-curve noise: decisions frequently disagree with truth
    for name in ("cb1", "cb2", "full24"):
        cb = named_codebook(name)
        worst = 0.0
        Y = []
        for _ in range(10_000):
            q = int(rng.integers(1, cb.size + 1))
            Y.append(H02.H @ _block(cb, q, 1, pam) + rng.normal(0.0, math.sqrt(n0 / 2), (4, 4)))
        Y = np.stack(Y)
        for y, row in zip(Y, iterative_rows(Y, cb)):
            bf = bf_sd_detect(y, cb, 1)
            it = iterative_sd_detect(row, cb, 1)
            worst = max(worst, abs(bf.cost - it.cost))
        assert worst <= 1e-9, f"{name}: max cost gap {worst}"
    _verdict(5, True, "iterative cost == exhaustive cost on 30000 noisy blocks")


def test_criterion_06_union_bound_tracks_ml():
    grid = (96.0, 98.0, 100.0, 101.0, 102.0, 103.0)
    cb = named_codebook("combined32")
    bound = ber_union_bound(cb, PamConfig(), H02, grid)
    recs = _run("ml", grid, cb, errors_target=150)
    bpb = cb.bits_per_block(1)
    window = []
    for rec, bval in zip(recs, bound.values):
        s3 = 3.0 * _sigma(rec, bpb)
        assert rec.ber <= bval + s3, \
            f"{rec.ebn0_db} dB: sim {rec.ber:.3e} above bound {bval:.3e} + 3sigma"
        if 1e-4 <= bval <= 1e-2:
            window.append(rec.ebn0_db)
            assert rec.ber >= bval / 2.0 - s3, \
                f"{rec.ebn0_db} dB: sim {rec.ber:.3e} below half the bound {bval:.3e}"
    ok = len(window) >= 3
    _verdict(6, ok, f"ml under bound everywhere; within factor 2 at {window} dB")
    assert ok, "bound window [1e-4,1e-2] needs at least 3 grid points"


def test_criterion_07_codebook_selection_ordering():
    grid = (98.0, 100.0, 102.0)
    r1 = _run("bf", grid, named_codebook("cb1"))
    r2 = _run("bf", grid, named_codebook("cb2"))
    compared = []
    for a, b in zip(r1, r2):
        if not (1e-4 <= a.ber <= 1e-1 and 1e-4 <= b.ber <= 1e-1):
            continue
        hi_a = a.ber + 1.96 * _sigma(a, 3)
        lo_b = b.ber - 1.96 * _sigma(b, 3)
        assert hi_a < lo_b, \
            f"{a.ebn0_db} dB: cb1 {a.ber:.3e} not below cb2 {b.ber:.3e} at 95%"
        compared.append(a.ebn0_db)
    ok = len(compared) >= 2
    _verdict(7, ok, f"cb1 beats cb2 with separated 95% intervals at {compared} dB")
    assert ok, "need at least two points with both BERs inside [1e-4, 1e-1]"


def test_criterion_08_blind_exhaustive_matches_ml_w2():
    cb = named_codebook("w2sel8")
    grid = (100.0, 102.0, 104.0)
    ml = _run("ml", grid, cb, errors_target=150, block_cap=500_000)
    bf = _run("bf", grid, cb, errors_target=150, block_cap=500_000)
    for a, b in zip(ml, bf):
        gap = abs(a.ber - b.ber)
        s3 = 3.0 * math.hypot(_sigma(a, 3), _sigma(b, 3))
        assert gap <= s3, f"{a.ebn0_db} dB: |bf-ml| {gap:.3e} exceeds 3sigma {s3:.3e}"
    ml_cross = _crossing_db(_run("ml", (101.0, 103.0), cb, errors_target=300,
                                 block_cap=800_000), 1e-3)
    it_cross = _crossing_db(_run("iterative", (105.0, 107.0), cb, errors_target=300,
                                 block_cap=800_000), 1e-3)
    gap_db = it_cross - ml_cross
    ok = 2.0 <= gap_db <= 4.0
    _verdict(8, ok, f"bf==ml within 3sigma; iterative gap {gap_db:.2f} dB "
                    f"(ml {ml_cross:.2f}, iterative {it_cross:.2f})")
    assert ok, f"iterative-to-ml gap {gap_db:.2f} dB outside [2, 4]"


def _received_d2(codebook, H) -> np.ndarray:
    """Pairwise ||H (S_i - S_j)||_F^2 between the book's M = 1 blocks."""
    pam = PamConfig()
    X = np.stack([H @ _block(codebook, q, 1, pam) for q in range(1, codebook.size + 1)])
    return ((X[:, None] - X[None, :]) ** 2).sum(axis=(2, 3))


def _below_3sigma(a, b, bits_per_block: int) -> bool:
    return a.ber + 3.0 * math.hypot(_sigma(a, bits_per_block),
                                    _sigma(b, bits_per_block)) < b.ber


def test_criterion_09_scheme_comparison_4bit():
    # 4 bits per signalling unit: pm16 under ML, repetition-coded 16-PAM (RC)
    # and spatial modulation (SM).  PM beats both on the 0.6 m grid (fig2-h06)
    # and beats SM on the 0.2 m fixture.  PM does not beat RC at 0.2 m: h02 is
    # near rank one (singular values 3.98e-4, 1.48e-5, 1.48e-5, 6.0e-7), so the
    # permutation blocks differ mostly in weak spatial modes.  All 24 weight-1
    # permutations have the same smallest squared received distance, 4.40e-10,
    # below RC's adjacent-level 5.48e-10.  The pairs at that distance swap two
    # neighbouring LEDs.  They form a 4-regular bipartite graph (even vs odd
    # permutations), and its largest independent set has 12 < 16 members, so
    # no 16-entry permutation book escapes them.  Both schemes see the same N0
    # at 4 bits, so at high SNR the smaller minimum distance loses (~1 dB); a
    # simulation would only re-measure that, so the 0.2 m exception is checked
    # as the distance fact itself.  At 0.6 m the distances are 1.31e-8 against
    # 1.12e-10 (~20.7 dB in PM's favour).
    h06 = build_channel(square_grid_geometry(tx_spacing=0.6))
    rc_cfg = RcConfig(L=4, M=16)
    bpb = rc_cfg.bits
    details = []
    for tag, channel, grid, rivals in (("h02", H02, (101.0, 102.0), ("sm",)),
                                       ("h06", h06, (87.0, 88.0), ("rc", "sm"))):
        pm = _run("ml", grid, named_codebook("pm16"), channel=channel)
        rival = {"rc": _run("rc", grid, rc=rc_cfg, channel=channel),
                 "sm": _run("sm", grid, sm=SmConfig(L=4, M=4), channel=channel)}
        assert all(r.ber <= 1e-3 for r in pm), f"{tag}: grid must sit at PM BER <= 1e-3"
        details += [f"{tag} {p.ebn0_db:g} dB pm {p.ber:.2e} rc {r.ber:.2e} sm {s.ber:.2e}"
                    for p, r, s in zip(pm, rival["rc"], rival["sm"])]
        for name in rivals:
            for p, x in zip(pm, rival[name]):
                assert _below_3sigma(p, x, bpb), \
                    f"{tag} {p.ebn0_db:g} dB: PM {p.ber:.2e} not 3sigma below {name} {x.ber:.2e}"

    full24 = named_codebook("full24")
    step = rc_cfg.level(2) - rc_cfg.level(1)
    pm_d2, d2 = {}, {}
    for tag, H in (("h02", H02.H), ("h06", h06.H)):
        pm_d2[tag] = _received_d2(full24, H)
        d2[tag] = (pm_d2[tag][np.triu_indices(full24.size, 1)].min(),
                   step ** 2 * float(((H @ np.ones(rc_cfg.L)) ** 2).sum()))
    assert d2["h02"][0] < d2["h02"][1], f"h02 min d2 (pm, rc) {d2['h02']}"
    assert d2["h06"][0] > d2["h06"][1], f"h06 min d2 (pm, rc) {d2['h06']}"

    # the h02 deficit holds for every 16-subset of full24: bipartite graph of
    # closest pairs, largest independent set = 24 - maximum matching (Konig)
    closest = np.isclose(pm_d2["h02"], d2["h02"][0], rtol=1e-6, atol=0.0)
    even = np.linalg.det(full24.matrix_stack) > 0
    assert not closest[np.ix_(even, even)].any() and not closest[np.ix_(~even, ~even)].any()
    sub = closest[np.ix_(even, ~even)]
    rows, cols = linear_sum_assignment(sub, maximize=True)
    largest_free = full24.size - int(sub[rows, cols].sum())
    assert largest_free < named_codebook("pm16").size

    _verdict(9, True, "; ".join(details) + f"; min d2 pm/rc h02 "
             f"{d2['h02'][0]:.2e}/{d2['h02'][1]:.2e} h06 {d2['h06'][0]:.2e}/"
             f"{d2['h06'][1]:.2e}; largest h02 book free of closest pairs {largest_free}")


def test_criterion_10_mobile_receiver_floor():
    cb = named_codebook("combined32")
    grid = (90.0, 96.0, 108.0)
    curves = {}
    for x in (0.0, 0.2, 0.4):
        ch = build_channel(square_grid_geometry(tx_spacing=0.6, rx_offset_x=x))
        curves[x] = _run("bf", grid, cb, channel=ch, errors_target=150,
                         block_cap=60_000)
    for i, db in enumerate(grid):
        b0, b2, b4 = (curves[x][i].ber for x in (0.0, 0.2, 0.4))
        assert b0 < b2 < b4, f"{db} dB: not monotone in offset ({b0}, {b2}, {b4})"
    floor = min(r.ber for r in curves[0.4])
    ok = floor >= 1e-1
    _verdict(10, ok, f"monotone degradation at {grid} dB; "
                     f"0.4 m floor {floor:.2f} >= 0.1")
    assert ok


def test_criterion_11_complexity_scaling():
    rng = np.random.default_rng(23)
    pam = PamConfig()
    books = [named_codebook(n) for n in ("cb1", "pm16", "full24")]
    sizes = np.array([cb.size for cb in books], dtype=float)
    bf_ops, it_ops = [], []
    for cb in books:
        ops = []
        for _ in range(64):
            q = int(rng.integers(1, cb.size + 1))
            Y = H02.H @ _block(cb, q, 1, pam) + rng.normal(0, 5e-6, (4, 4))
            ops.append(bf_sd_detect(Y, cb, 1).op_count)
        bf_ops.append(float(np.mean(ops)))
        # noise-free inputs keep the first-ranked assignment inside the book,
        # isolating the size-independent part of the iterative decoder
        member = [_iterative(H02.H @ _block(cb, q, 1, pam), cb, 1).op_count
                  for q in range(1, cb.size + 1)]
        it_ops.append(float(np.mean(member)))
    slope, intercept = np.polyfit(sizes, bf_ops, 1)
    fitted = slope * sizes + intercept
    ss_res = float(((np.array(bf_ops) - fitted) ** 2).sum())
    ss_tot = float(((np.array(bf_ops) - np.mean(bf_ops)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    spread = (max(it_ops) - min(it_ops)) / min(it_ops)
    ok = r2 > 0.99 and spread < 0.20
    _verdict(11, ok, f"bf ops {bf_ops} linear in Q (R2={r2:.4f}); "
                     f"iterative spread {spread:.1%} across Q=8..24")
    assert r2 > 0.99
    assert spread < 0.20


def test_criterion_12_preset_thread_determinism(tmp_path):
    outputs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        code = main(["preset", "fig4-cb1-cb2", "--out-dir", str(out),
                     "--threads", threads, "--errors-target", "25",
                     "--block-cap", "8192"])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 4
    _verdict(12, ok, f"{sorted(outputs[0])} byte-identical for 1 vs 4 threads")
    assert outputs[0] == outputs[1]
