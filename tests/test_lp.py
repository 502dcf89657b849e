"""The LP reference held to an exhaustive vertex-enumeration oracle.

The oracle enumerates every candidate basic point of a box-bounded LP
(k active inequality rows plus n-k variables pinned at a bound), so on
the LP of a one-step dispatch problem (4 variables, at most 5 rows) it
is a complete, solver-free source of truth: a bounded LP with no
feasible vertex has no feasible point.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from bessprofit.battery import make_spec
from bessprofit.optimizer import DispatchProblem

from _reference import build_lp, certify, highs_optimum, lp_reference
from _support import mini_scenario, random_dispatch_instance


def brute_force_min(lp, tol: float = 1e-8) -> float | None:
    """The least c·v over every basic feasible point; None when there is none."""
    a, b, (lo, hi) = lp.A_ub.toarray(), lp.b_ub, lp.bounds.T
    m, n = a.shape
    best = np.inf
    for k in range(min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            ar, br = a[list(rows)], b[list(rows)]
            for free in itertools.combinations(range(n), k):
                fixed = [j for j in range(n) if j not in free]
                sub = ar[:, list(free)]
                if k and abs(np.linalg.det(sub)) < 1e-12:
                    continue
                for pattern in itertools.product((False, True), repeat=n - k):
                    v = np.empty(n)
                    v[fixed] = np.where(pattern, hi[fixed], lo[fixed])
                    if k:
                        v[list(free)] = np.linalg.solve(sub, br - ar[:, fixed] @ v[fixed])
                    if np.all(v >= lo - tol) and np.all(v <= hi + tol) and np.all(a @ v <= b + tol):
                        best = min(best, float(lp.c @ v))
    return None if best == np.inf else best


def test_matches_vertex_enumeration_small():
    # one step under a cap from above the baseline peak to past the battery's
    # reach, so that some draws are infeasible, each under every epsilon and
    # with and without the terminal SoC rule
    rng = np.random.default_rng(20240817)
    outcomes = []
    for k in range(20):
        h = float(rng.choice([1.0 / 12.0, 0.25, 1.0]))
        rate = float(rng.choice([0.25, 1.0, 2.0]))
        spec = make_spec("one", float(rng.choice([0.5, 1.0, 2.0])), rate, rate)
        z = float(rng.uniform(-0.5, 1.0)) * spec.b_rated
        reach = -spec.delta_min_kw * spec.eta_dis * float(rng.uniform(-0.2, 1.5))
        cap = np.inf if rng.random() < 0.2 else max(0.0, z / h - reach)
        base = DispatchProblem(mini_scenario([z], [float(rng.uniform(0.0, 0.5))], h=h), spec, p_max_set=cap,
                               eta_fric=float(rng.choice([1.0, 0.8])))
        for epsilon, terminal_soc in itertools.product((0.0, 1e-6, 1e-3), (False, True)):
            prob = replace(base, epsilon=epsilon, terminal_soc=terminal_soc)
            ref, oracle = lp_reference(prob), brute_force_min(build_lp(prob))
            where = f"case {k}, epsilon={epsilon}, terminal_soc={terminal_soc}"
            assert (ref is None) == (oracle is None), where
            if ref is not None:
                assert abs(ref.objective - oracle) <= 1e-6 * (1.0 + abs(oracle)), where
            outcomes.append(ref is None)
    assert 0 < sum(outcomes) < len(outcomes) / 2


def idle_points(count: int):
    """(lp, idle point) of ``count`` random instances without a cap, so that
    the idle dispatch meets every row and bound, and HiGHS beats it."""
    rng = np.random.default_rng(21)
    for k in range(count):
        prob = replace(random_dispatch_instance(rng), p_max_set=np.inf)
        lp, n, z = build_lp(prob), prob.scenario.n, prob.scenario.z
        idle = np.concatenate((np.zeros(2 * n), np.maximum(0.0, z), np.full(n, prob.spec.b_0)))
        assert lp_reference(prob).objective < float(lp.c @ idle), f"case {k}"
        yield lp, idle


def test_certificate_fails_a_feasible_non_optimal_point():
    # zero multipliers prove nothing about the idle dispatch's cost
    for lp, idle in idle_points(5):
        zero = np.zeros_like(idle)
        with pytest.raises(AssertionError, match="optimality certificate failed"):
            certify(lp, idle, np.zeros(lp.A_ub.shape[0]), zero, zero)


def test_certificate_charges_the_duality_gap():
    # the optimum's multipliers leave no stationarity residual to speak of,
    # so only the gap between the idle point's cost and their dual bound fails it
    for lp, idle in idle_points(5):
        _, lam, mu_lo, mu_hi = highs_optimum(lp)
        with pytest.raises(AssertionError, match="optimality certificate failed"):
            certify(lp, idle, lam, mu_lo, mu_hi)
