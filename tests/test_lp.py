"""Solver tests anchored to an exhaustive vertex-enumeration oracle.

The oracle enumerates every candidate basic point of a box-bounded LP
(k active inequality rows plus n-k variables pinned at a bound), so on
small instances it is a complete, solver-free source of truth.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from _reference import LinearProgram, SolverError, solve


# ----------------------------------------------------------------- oracle


def brute_force_min(lp: LinearProgram, tol: float = 1e-8) -> tuple[float, np.ndarray]:
    """Complete enumeration of basic feasible points; returns (min, argmin).

    Every vertex of {A v <= b, lo <= v <= hi} satisfies n linearly
    independent active constraints: k inequality rows plus n-k bounds.
    For each such combination the free coordinates solve a k x k system.
    """
    n, m = lp.n_vars, lp.n_rows
    a = lp.A_ub.toarray()
    b = np.asarray(lp.b_ub, dtype=float)
    lo, hi = lp.bounds[:, 0], lp.bounds[:, 1]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("oracle needs finite bounds")
    best, best_v = np.inf, None
    for k in range(min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            ar, br = a[list(rows)], b[list(rows)]
            for free in itertools.combinations(range(n), k):
                fixed = [j for j in range(n) if j not in free]
                sub = ar[:, list(free)]
                if k and abs(np.linalg.det(sub)) < 1e-12:
                    continue
                for pattern in itertools.product((0, 1), repeat=n - k):
                    v = np.empty(n)
                    for j, p in zip(fixed, pattern):
                        v[j] = hi[j] if p else lo[j]
                    if k:
                        rhs = br - ar[:, fixed] @ v[fixed] if fixed else br
                        v[list(free)] = np.linalg.solve(sub, rhs)
                    if np.any(v < lo - tol) or np.any(v > hi + tol):
                        continue
                    if m and np.any(a @ v > b + tol):
                        continue
                    obj = float(lp.c @ v)
                    if obj < best:
                        best, best_v = obj, v.copy()
    if best_v is None:
        raise ValueError("no feasible vertex found")
    return best, best_v


def random_lp(rng: np.random.Generator, n_max: int = 6, m_max: int = 3) -> LinearProgram:
    """Random bounded LP, strictly feasible by construction."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    c = rng.uniform(-1.0, 1.0, n)
    corners = rng.uniform(-1.0, 1.0, (n, 2))
    lo = corners.min(axis=1)
    hi = corners.max(axis=1) + rng.uniform(0.5, 2.0, n)
    mat = rng.uniform(-1.0, 1.0, (m, n))
    mid = (lo + hi) / 2.0
    b = mat @ mid + rng.uniform(0.05, 1.0, m)
    return LinearProgram(c=c, A_ub=mat, b_ub=b, bounds=np.column_stack([lo, hi]))


# ------------------------------------------------------------ hand cases


def test_single_variable_box_minimum():
    lp = LinearProgram(
        c=np.array([1.0]),
        A_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        bounds=np.array([[2.0, 5.0]]),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.v[0] == pytest.approx(2.0, abs=1e-9)


def test_two_variable_budget_row():
    lp = LinearProgram(
        c=np.array([-1.0, -1.0]),
        A_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([1.0]),
        bounds=np.array([[0.0, 2.0], [0.0, 2.0]]),
    )
    sol = solve(lp)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.v.sum() == pytest.approx(1.0, abs=1e-9)


def test_infeasible_status():
    lp = LinearProgram(
        c=np.array([1.0]),
        A_ub=np.array([[1.0]]),
        b_ub=np.array([1.0]),
        bounds=np.array([[2.0, 5.0]]),
    )
    assert solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = LinearProgram(
        c=np.array([-1.0]),
        A_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        bounds=np.array([[0.0, np.inf]]),
    )
    assert solve(lp).status == "unbounded"


# ------------------------------------------------- oracle cross-checks


def test_matches_vertex_enumeration_small():
    rng = np.random.default_rng(20240817)
    for k in range(40):
        lp = random_lp(rng)
        sol = solve(lp)
        ref, _ = brute_force_min(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - ref) <= 1e-6 * (1.0 + abs(ref)), f"case {k}"
        # the solver's point must itself be feasible
        assert np.all(lp.A_ub @ sol.v <= lp.b_ub + 1e-9), f"case {k}"
        assert np.all(sol.v >= lp.bounds[:, 0] - 1e-9), f"case {k}"
        assert np.all(sol.v <= lp.bounds[:, 1] + 1e-9), f"case {k}"


def test_matches_vertex_enumeration_ten_variables():
    rng = np.random.default_rng(99)
    lp = random_lp(rng, n_max=10, m_max=3)
    while lp.n_vars < 10 or lp.n_rows < 2:
        lp = random_lp(rng, n_max=10, m_max=3)
    sol = solve(lp)
    ref, _ = brute_force_min(lp)
    assert abs(sol.objective - ref) <= 1e-6 * (1.0 + abs(ref))


def test_redundant_duplicate_row_changes_nothing():
    rng = np.random.default_rng(3)
    lp = random_lp(rng, n_max=5, m_max=3)
    while lp.n_rows == 0:
        lp = random_lp(rng, n_max=5, m_max=3)
    a = lp.A_ub.toarray()
    doubled = LinearProgram(
        c=lp.c,
        A_ub=np.vstack([a, a[:1]]),
        b_ub=np.concatenate([lp.b_ub, lp.b_ub[:1]]),
        bounds=lp.bounds,
    )
    assert solve(doubled).objective == pytest.approx(solve(lp).objective, abs=1e-8)


def test_dual_multiplier_scales_inversely_with_row():
    # scaling a row by alpha leaves the optimum alone and divides its dual by alpha
    rng = np.random.default_rng(0)
    lp = random_lp(rng, n_max=5, m_max=3)
    sol = solve(lp)
    assert sol.dual_ineq is not None and sol.dual_ineq[0] > 0.05  # row 0 is active
    alpha = 4.0
    a2 = lp.A_ub.toarray()
    b2 = lp.b_ub.copy()
    a2[0] *= alpha
    b2[0] *= alpha
    sol2 = solve(LinearProgram(c=lp.c, A_ub=a2, b_ub=b2, bounds=lp.bounds))
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-7 * (1 + abs(sol.objective)))
    assert alpha * sol2.dual_ineq[0] == pytest.approx(sol.dual_ineq[0], rel=1e-5)


# --------------------------------------------------------- re-certification


def test_solve_certifies_gap_and_feasibility():
    rng = np.random.default_rng(21)
    for _ in range(10):
        lp = random_lp(rng)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.duality_gap_bound <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.duality_gap_bound >= -1e-12


# ------------------------------------------------------------- validation


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([np.nan]), A_ub=np.zeros((0, 1)), b_ub=np.zeros(0),
                      bounds=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0]), A_ub=np.array([[np.inf]]), b_ub=np.array([1.0]),
                      bounds=np.array([[0.0, 1.0]]))


def test_rejects_inverted_bounds_and_bad_shapes():
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0]), A_ub=np.zeros((0, 1)), b_ub=np.zeros(0),
                      bounds=np.array([[2.0, 1.0]]))
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0]), A_ub=np.zeros((2, 3)), b_ub=np.zeros(2),
                      bounds=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        LinearProgram(c=np.array([1.0]), A_ub=np.zeros((2, 1)), b_ub=np.zeros(3),
                      bounds=np.array([[0.0, 1.0]]))


def test_solver_error_type_exists():
    # the certification failure path raises a dedicated error type
    assert issubclass(SolverError, RuntimeError)
