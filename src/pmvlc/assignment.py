"""Minimum-cost assignment: the optimum, and every assignment ranked by cost.

Codebooks are only enumerable up to ENUMERATION_MAX_L columns, so an
assignment problem here has at most 720 solutions.  Ranking them is
therefore done in closed form: the costs of all n! column tuples are
gathered from codebook.permutation_table, the cached lexicographic table
that codebook enumeration walks too, and sorted once, stably, which lists
assignments by (cost, column tuple).  The single optimum comes from
scipy's linear_sum_assignment, with equal-cost ties resolved to the
lexicographically smallest column tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .codebook import ENUMERATION_MAX_L, permutation_table


class InfeasibleError(ValueError):
    """No assignment avoids the forbidden entries."""


@dataclass(frozen=True)
class Assignment:
    """Column choice per row (1-based) and the summed cost."""

    perm: tuple[int, ...]
    cost: float


def _as_cost_matrix(costs) -> np.ndarray:
    C = np.asarray(costs, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("cost matrix must be square")
    if C.shape[0] < 1:
        raise ValueError("cost matrix must be nonempty")
    if np.isnan(C).any():
        raise ValueError("cost matrix contains NaN")
    return np.where(np.isinf(C), np.inf, C)  # any infinity forbids the pairing


def hungarian(costs) -> Assignment:
    """Globally minimum-cost assignment; equal-cost ties resolve to the
    lexicographically smallest column tuple.

    Entries may be +inf to forbid a pairing; raises InfeasibleError when no
    assignment avoids them.  Costs within 1e-9 * max(1, max|C|) of the
    optimum count as equal.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, so kept off the CLI path

    C = _as_cost_matrix(costs)
    n = C.shape[0]
    finite = np.abs(C[np.isfinite(C)])
    tol = 1e-9 * max(1.0, float(finite.max()) if finite.size else 1.0)

    def best(rows, cols) -> float:
        # optimal cost over the given rows and columns; +inf if infeasible
        if not rows:
            return 0.0
        sub = C[np.ix_(rows, cols)]
        try:
            r, c = linear_sum_assignment(sub)
        except ValueError:
            return math.inf
        return float(sub[r, c].sum())

    optimum = best(list(range(n)), list(range(n)))
    if math.isinf(optimum):
        raise InfeasibleError("no assignment avoids the forbidden entries")
    # Fix rows in order, each to the smallest column that still completes
    # to an optimum.
    cols, free, fixed = [], list(range(n)), 0.0
    for r in range(n):
        totals = np.array([fixed + C[r, c] + best(list(range(r + 1, n)), [j for j in free if j != c])
                           for c in free])
        c = free[int(np.argmax(totals <= max(optimum + tol, totals.min())))]
        cols.append(c)
        free.remove(c)
        fixed += C[r, c]
    return Assignment(perm=tuple(c + 1 for c in cols), cost=float(C[np.arange(n), cols].sum()))


def murty_iter(costs) -> Iterator[Assignment]:
    """Yield assignments in nondecreasing cost without repetition.

    Equal costs come in lexicographic column-tuple order, the order of
    Murty's k-best partition scheme, so this is an exact ranking of all n!
    assignments.  Assignments through a +inf entry are skipped; raises
    InfeasibleError when none is left, and ValueError above
    ENUMERATION_MAX_L columns, where the table grows too large.
    """
    C = _as_cost_matrix(costs)
    n = C.shape[0]
    if n > ENUMERATION_MAX_L:
        raise ValueError(f"ranking needs at most {ENUMERATION_MAX_L} columns, got {n}")
    table, perms = permutation_table(n)
    total = C[np.arange(n), table].sum(axis=1)
    order = np.argsort(total, kind="stable")[:np.isfinite(total).sum()]  # +inf sorts last
    if not order.size:
        raise InfeasibleError("no assignment avoids the forbidden entries")
    for i in order.tolist():
        yield Assignment(perm=perms[i], cost=float(total[i]))


def murty_enumerate(costs, k: int) -> list[Assignment]:
    """The k lowest-cost assignments in nondecreasing cost order."""
    C = _as_cost_matrix(costs)
    n = C.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > math.factorial(n):
        raise ValueError(f"k={k} exceeds the {math.factorial(n)} assignments of size {n}")
    return list(itertools.islice(murty_iter(C), k))
