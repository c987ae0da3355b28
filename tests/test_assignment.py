"""Assignment solver and k-best enumeration tests against brute force."""

import math
import os
import subprocess
import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmvlc.assignment as assignment
from pmvlc.assignment import Assignment, InfeasibleError, hungarian, murty_enumerate, murty_iter
from pmvlc.codebook import ENUMERATION_MAX_L


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


class TestHungarian:
    def test_two_by_two_example(self):
        a = hungarian([[1.0, 2.0], [2.0, 4.0]])
        assert a.perm == (2, 1)
        assert a.cost == pytest.approx(4.0)

    def test_identity_favoring_matrix(self):
        C = np.ones((4, 4)) - np.eye(4)
        a = hungarian(C)
        assert a.perm == (1, 2, 3, 4)
        assert a.cost == pytest.approx(0.0)

    def test_all_equal_ties_resolve_lexicographically(self):
        a = hungarian(np.ones((4, 4)))
        assert a.perm == (1, 2, 3, 4)

    def test_crafted_tie(self):
        # Two optima of cost 2: (1,2,3) and (2,1,3); the smaller tuple wins.
        C = np.array([[0.0, 0.0, 9.0], [0.0, 0.0, 9.0], [9.0, 9.0, 2.0]])
        assert hungarian(C).perm == (1, 2, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force_on_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            C = rng.normal(size=(n, n))
            best_cost, best_perm = brute_force_all(C)[0]
            a = hungarian(C)
            assert a.cost == pytest.approx(best_cost, abs=1e-9)
            assert a.perm == best_perm

    def test_matches_scipy(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        for _ in range(100):
            C = rng.normal(size=(5, 5))
            rows, cols = linear_sum_assignment(C)
            assert hungarian(C).cost == pytest.approx(float(C[rows, cols].sum()), abs=1e-9)

    def test_infinite_entries_forbid_pairs(self):
        C = np.array([[np.inf, 1.0], [1.0, np.inf]])
        assert hungarian(C).perm == (2, 1)

    def test_infeasible_row(self):
        C = np.array([[np.inf, np.inf], [1.0, 1.0]])
        with pytest.raises(InfeasibleError):
            hungarian(C)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hungarian(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=16, max_size=16),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
    )
    def test_argmin_scale_invariance(self, flat, scale, shift):
        C = np.array(flat).reshape(4, 4)
        a = hungarian(C)
        b = hungarian(scale * C + shift)
        assert a.perm == b.perm


class TestMurty:
    def test_two_by_two_full_order(self):
        out = murty_enumerate([[1.0, 2.0], [2.0, 4.0]], 2)
        assert [a.perm for a in out] == [(2, 1), (1, 2)]
        assert [a.cost for a in out] == [pytest.approx(4.0), pytest.approx(5.0)]

    def test_first_equals_hungarian(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            C = rng.normal(size=(4, 4))
            assert murty_enumerate(C, 1)[0] == hungarian(C)

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_enumeration_matches_brute_force(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            C = rng.normal(size=(n, n))
            expected = brute_force_all(C)
            got = murty_enumerate(C, math.factorial(n))
            assert len(got) == len(expected)
            assert len({a.perm for a in got}) == len(got)
            costs = [a.cost for a in got]
            assert costs == sorted(costs)
            assert sorted(a.perm for a in got) == sorted(p for _, p in expected)
            for a, (cost, _) in zip(got, expected):
                assert a.cost == pytest.approx(cost, abs=1e-9)

    def test_prefix_of_full_enumeration(self):
        rng = np.random.default_rng(11)
        C = rng.normal(size=(4, 4))
        full = murty_enumerate(C, 24)
        assert murty_enumerate(C, 5) == full[:5]

    def test_k_validation(self):
        C = np.eye(3)
        with pytest.raises(ValueError):
            murty_enumerate(C, 0)
        with pytest.raises(ValueError):
            murty_enumerate(C, 7)

    def test_iterator_is_lazy_and_complete(self):
        C = np.arange(16.0).reshape(4, 4)
        it = murty_iter(C)
        first = next(it)
        assert first == hungarian(C)
        rest = list(it)
        assert len(rest) == 23

    def test_forbidden_entries_respected(self):
        C = np.array([[1.0, np.inf, 3.0], [np.inf, 2.0, 1.0], [2.0, 2.0, np.inf]])
        out = murty_enumerate(C, 4)
        for a in out:
            assert (a.perm[0], a.perm[1], a.perm[2]) not in {(2, 1, 3)}
            assert a.perm[0] != 2 and a.perm[1] != 1 and a.perm[2] != 3
        # Only assignments avoiding the three forbidden cells remain.
        feasible = [p for c, p in brute_force_all(np.where(np.isinf(C), 1e6, C)) if c < 1e5]
        assert len(out) == min(4, len(feasible))

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
            got = murty_enumerate(C, 24)
            assert [(a.cost, a.perm) for a in got] == brute_force_all(C)

    def test_rejects_sizes_above_enumeration_limit(self, monkeypatch):
        def no_table(n):
            raise AssertionError("permutation table built")

        monkeypatch.setattr(assignment, "permutation_table", no_table)
        n = ENUMERATION_MAX_L + 1
        with pytest.raises(ValueError, match="at most"):
            next(murty_iter(np.zeros((n, n))))


def test_cli_import_leaves_scipy_optimize_unloaded():
    # hungarian imports scipy.optimize on first call; the CLI never needs it.
    code = "import sys, pmvlc.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
