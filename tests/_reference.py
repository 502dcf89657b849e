"""The dispatch LP, the reference the tests hold the dynamic program to.

``build_lp`` states a ``DispatchProblem`` as a sparse linear program
with variables (x_plus_i, x_minus_i, theta_i, b_i) per step,

    min c·v   subject to   A_ub·v <= b_ub,   lo <= v <= hi,

with A_ub a scipy.sparse CSR matrix and every bound finite.
``lp_reference`` hands it to HiGHS via scipy (``highs_optimum``) and
certifies the answer itself: ``certify`` recomputes the primal
residuals and a duality-gap bound from the returned multipliers rather
than trusting the backend, and an answer that fails either fails the
test that asked for it.

The package ships no LP and needs no SciPy. Among the tests only this
module imports SciPy (``test_cli.py`` parses them all to check), and
only ``test_lp.py`` and ``test_optimizer.py`` (with
``test_acceptance.py``, through the latter) import this module, so the
rest of the suite runs without SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from bessprofit.optimizer import DispatchProblem

# bound on the normalized primal residuals, and relative bound on the
# recomputed duality gap: 1e-7·(1+|objective|)
TOL_FEAS = 1e-9
TOL_GAP_REL = 1e-7


class DispatchLp(NamedTuple):
    """The LP min c·v s.t. A_ub·v <= b_ub, bounds[:, 0] <= v <= bounds[:, 1]."""

    c: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    bounds: np.ndarray  # (n_vars, 2), finite


def certify(lp: DispatchLp, v: np.ndarray, lam: np.ndarray, mu_lo: np.ndarray, mu_hi: np.ndarray) -> float:
    """Assert that ``v`` is feasible and, by the multipliers, optimal; return c·v.

    lam, mu_lo and mu_hi are the multipliers of the rows, the lower and the
    upper bounds, clipped here to >= 0. Each row's violation is normalized
    by max(1, |b_i|, max_j |A_ij|) and each variable's by
    max(1, |lo_j|, |hi_j|); the worst must be within TOL_FEAS. The dual
    bound is -lam·b + mu_lo·lo - mu_hi·hi, and the stationarity residual
    r = c + A^T·lam - mu_lo + mu_hi that remains is charged to it as
    sum_j |r_j|·max(|lo_j|, |hi_j|), which on a finite box keeps the bound
    rigorous. c·v may exceed it by at most TOL_GAP_REL·(1+|c·v|).
    """
    lo, hi = lp.bounds[:, 0], lp.bounds[:, 1]
    row_scale = np.maximum(1.0, np.maximum(np.abs(lp.b_ub), abs(lp.A_ub).max(axis=1).toarray().ravel()))
    box = np.maximum(np.abs(lo), np.abs(hi))
    rows = np.maximum(0.0, lp.A_ub @ v - lp.b_ub) / row_scale
    bnds = np.maximum(np.maximum(0.0, lo - v), np.maximum(0.0, v - hi)) / np.maximum(1.0, box)
    worst = max(rows.max(), bnds.max())
    assert worst <= TOL_FEAS, f"primal-infeasible point: normalized violation {worst:.3e}"

    lam, mu_lo, mu_hi = (np.maximum(0.0, m) for m in (lam, mu_lo, mu_hi))
    r = lp.c + lp.A_ub.T @ lam - mu_lo + mu_hi
    dual_obj = -float(lam @ lp.b_ub) + float(np.sum(mu_lo * lo)) - float(np.sum(mu_hi * hi))
    objective = float(lp.c @ v)
    gap = max(0.0, objective - dual_obj) + float(np.abs(r) @ box)
    limit = TOL_GAP_REL * (1.0 + abs(objective))
    assert gap <= limit, f"optimality certificate failed: gap bound {gap:.3e} > {limit:.3e}"
    return objective


def build_lp(prob: DispatchProblem) -> DispatchLp:
    """Assemble the dispatch LP.

    Variable layout, n = step count: x_plus [0, n), x_minus [n, 2n),
    theta [2n, 3n), b [3n, 4n). Objective Σ price_i·theta_i plus
    epsilon·Σ(x_plus_i + x_minus_i). Rows: billing
    theta_i >= z_i + s_fric_i; peak (z_i + s_i) <= p_max_set·h (skipped
    when the cap is infinite); the SoC recursion as <=/>= pairs. Ramp
    limits and SoC box are variable bounds, all finite. With terminal_soc
    the final SoC must end at or above its initial value.
    """
    scenario, spec = prob.scenario, prob.spec
    n, h = scenario.n, scenario.h
    z = scenario.z

    xp = np.arange(n)
    xm = n + xp
    th = 2 * n + xp
    bb = 3 * n + xp
    n_vars = 4 * n

    c = np.zeros(n_vars)
    c[th] = scenario.price
    c[xp] = prob.epsilon
    c[xm] = prob.epsilon

    bounds = np.zeros((n_vars, 2))
    bounds[xp, 1] = spec.delta_max_kw * h
    bounds[xm, 1] = -spec.delta_min_kw * h
    # theta never needs to exceed the largest possible billing RHS
    bounds[th, 1] = np.maximum(0.0, z + spec.delta_max_kw * h / (spec.eta_ch * prob.eta_fric))
    bounds[bb] = spec.b_min, spec.b_max
    assert np.all(np.isfinite(bounds)), "the certificate needs a finite box"

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    row_base = 0

    def add_block(r, cl, dt, b_block):
        nonlocal row_base
        rows.append(np.asarray(r) + row_base)
        cols.append(np.asarray(cl))
        data.append(np.asarray(dt, dtype=float))
        rhs.append(np.asarray(b_block, dtype=float))
        row_base += len(b_block)

    # billing: -theta_i + a_ch·x_plus_i - a_dis·x_minus_i <= -z_i
    a_ch = 1.0 / (spec.eta_ch * prob.eta_fric)
    a_dis = spec.eta_dis * prob.eta_fric
    r = np.repeat(xp, 3)
    add_block(
        r,
        np.column_stack((th, xp, xm)).ravel(),
        np.tile([-1.0, a_ch, -a_dis], n),
        -z,
    )

    # peak cap: x_plus_i/eta_ch - eta_dis·x_minus_i <= p_max_set·h - z_i
    if np.isfinite(prob.p_max_set):
        add_block(
            np.repeat(xp, 2),
            np.column_stack((xp, xm)).ravel(),
            np.tile([1.0 / spec.eta_ch, -spec.eta_dis], n),
            prob.p_max_set * h - z,
        )

    # SoC recursion b_i - b_{i-1} - x_plus_i + x_minus_i = (b_0 if i == 0 else 0),
    # written as a <= pair per step; step 0 has no b_{-1} term (entry 3).
    eq_rhs = np.zeros(n)
    eq_rhs[0] = spec.b_0
    ridx = np.delete(np.repeat(xp, 4), 3)
    cidx = np.delete(np.column_stack((bb, xp, xm, bb - 1)).ravel(), 3)
    vals = np.delete(np.tile([1.0, -1.0, 1.0, -1.0], n), 3)
    add_block(ridx, cidx, vals, eq_rhs)
    add_block(ridx, cidx, -vals, -eq_rhs)

    if prob.terminal_soc:
        add_block([0], [bb[-1]], [-1.0], [-spec.b_0])

    a_ub = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_base, n_vars),
    ).tocsr()
    return DispatchLp(c, a_ub, np.concatenate(rhs), bounds)


@dataclass(frozen=True)
class LpReference:
    """The dispatch LP's certified optimum: objective and SoC trajectory."""

    objective: float  # frictioned bill plus the epsilon movement term, in €
    soc: np.ndarray  # SoC including the initial state, length n + 1


def highs_optimum(lp: DispatchLp) -> tuple[np.ndarray, ...] | None:
    """HiGHS's optimum of ``lp`` and its multipliers, uncertified, as
    ``certify`` takes them: (v, lam, mu_lo, mu_hi). None if HiGHS finds it
    infeasible; any other failure fails an assertion."""
    res = linprog(
        lp.c,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        bounds=lp.bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": TOL_FEAS,
            "dual_feasibility_tolerance": TOL_FEAS,
        },
    )
    if res.status == 2:
        return None
    assert res.status == 0, f"HiGHS status {res.status}: {res.message}"
    return res.x, -res.ineqlin.marginals, res.lower.marginals, -res.upper.marginals


def lp_reference(prob: DispatchProblem) -> LpReference | None:
    """Solve the LP of build_lp with HiGHS and certify the optimum; None if
    HiGHS finds it infeasible. Any other failure fails an assertion."""
    lp = build_lp(prob)
    opt = highs_optimum(lp)
    if opt is None:
        return None
    objective, v = certify(lp, *opt), opt[0]
    n, b_0 = prob.scenario.n, prob.spec.b_0
    x = v[:n] - v[n : 2 * n]
    return LpReference(objective, np.concatenate(([b_0], b_0 + np.cumsum(x))))
