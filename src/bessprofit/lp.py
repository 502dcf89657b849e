"""The dispatch LP's solver, the reference the tests hold the dynamic program to.

The problem form is

    min c·v   subject to   A_ub·v <= b_ub,   lo <= v <= hi,

with A_ub held as a scipy.sparse CSR matrix. ``solve`` delegates the
vertex search to HiGHS via scipy, then certifies the answer itself: the
primal residuals and a duality-gap bound are recomputed here from the
returned multipliers rather than trusted from the backend, and a result
is only reported "optimal" if that certificate passes.

SciPy is imported where it is used, so importing this module loads none
of it: only building a ``LinearProgram`` or solving one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LinearProgram",
    "LpSolution",
    "solve",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# bound on the normalized primal residuals, and relative bound on the
# recomputed duality gap: 1e-7·(1+|objective|)
TOL_FEAS = 1e-9
TOL_GAP_REL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """Immutable LP in inequality form; bounds row j is [lo_j, hi_j]."""

    c: np.ndarray
    A_ub: sp.csr_matrix  # (n_rows, n_vars); a dense array is converted
    b_ub: np.ndarray
    bounds: np.ndarray  # (n_vars, 2); +-inf allowed
    n_vars: int = field(init=False)
    n_rows: int = field(init=False)

    def __post_init__(self):
        import scipy.sparse as sp

        c = np.asarray(self.c, dtype=float)
        a = sp.csr_matrix(self.A_ub, dtype=float)
        b = np.asarray(self.b_ub, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        n_vars = c.shape[0]
        n_rows = a.shape[0]
        if c.ndim != 1:
            raise ValueError("c must be one-dimensional")
        if a.shape[1] != n_vars:
            raise ValueError(f"A_ub must be (n_rows, {n_vars})")
        if b.shape != (n_rows,):
            raise ValueError("b_ub length must match A_ub rows")
        if bounds.shape != (n_vars, 2):
            raise ValueError("bounds must be (n_vars, 2)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a.data)) and np.all(np.isfinite(b))):
            raise ValueError("c, A_ub, b_ub must be finite")
        if np.any(np.isnan(bounds)) or np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError("bounds must satisfy lo <= hi")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_ub", a)
        object.__setattr__(self, "b_ub", b)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "n_rows", n_rows)


@dataclass(frozen=True)
class LpSolution:
    """Solver output plus the dual multipliers needed to re-certify it.

    duality_gap_bound is a one-sided bound: objective - (certified lower
    bound on the true optimum), always >= 0 up to arithmetic noise.
    """

    v: np.ndarray
    objective: float
    status: str
    duality_gap_bound: float
    dual_ineq: np.ndarray | None = None  # multipliers for A_ub·v <= b_ub, >= 0
    dual_lower: np.ndarray | None = None  # multipliers for v >= lo, >= 0
    dual_upper: np.ndarray | None = None  # multipliers for v <= hi, >= 0


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _row_scales(lp: LinearProgram) -> np.ndarray:
    """Per-row normalization max(1, |b_i|, max_j |A_ij|)."""
    absmax = abs(lp.A_ub).max(axis=1).toarray().ravel()
    return np.maximum(1.0, np.maximum(np.abs(lp.b_ub), absmax))


def _primal_violations(lp: LinearProgram, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(normalized row violations, normalized bound violations)."""
    if lp.n_rows:
        resid = lp.A_ub @ v - lp.b_ub
        rows = np.maximum(0.0, resid) / _row_scales(lp)
    else:
        rows = np.zeros(0)
    lo, hi = lp.bounds[:, 0], lp.bounds[:, 1]
    scale = np.maximum(1.0, np.maximum(np.abs(np.where(np.isfinite(lo), lo, 0.0)),
                                       np.abs(np.where(np.isfinite(hi), hi, 0.0))))
    below = np.where(np.isfinite(lo), np.maximum(0.0, lo - v), 0.0) / scale
    above = np.where(np.isfinite(hi), np.maximum(0.0, v - hi), 0.0) / scale
    return rows, np.maximum(below, above)


def _certified_gap(
    lp: LinearProgram,
    v: np.ndarray,
    lam: np.ndarray,
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
) -> float:
    """Duality-gap bound from candidate multipliers, recomputed from scratch.

    Multipliers are clipped to their sign constraints and zeroed on infinite
    bounds; whatever stationarity residual r = c + A^T·lam - mu_lo + mu_hi
    remains is charged to the bound as sum_j |r_j|·box_j, where box_j is the
    largest |v_j| the box allows (|v_j|+1 when the box is unbounded, which
    keeps the bound honest rather than rigorous in that case).
    """
    lo, hi = lp.bounds[:, 0], lp.bounds[:, 1]
    lam = np.maximum(0.0, lam)
    mu_lo = np.where(np.isfinite(lo), np.maximum(0.0, mu_lo), 0.0)
    mu_hi = np.where(np.isfinite(hi), np.maximum(0.0, mu_hi), 0.0)

    if lp.n_rows:
        r = lp.c + lp.A_ub.T @ lam - mu_lo + mu_hi
        dual_obj = -float(lam @ lp.b_ub)
    else:
        r = lp.c - mu_lo + mu_hi
        dual_obj = 0.0
    dual_obj += float(np.sum(np.where(mu_lo > 0, mu_lo * lo, 0.0)))
    dual_obj -= float(np.sum(np.where(mu_hi > 0, mu_hi * hi, 0.0)))

    box = np.where(
        np.isfinite(lo) & np.isfinite(hi),
        np.maximum(np.abs(lo), np.abs(hi)),
        np.abs(v) + 1.0,
    )
    leak = float(np.abs(r) @ box)
    primal_obj = float(lp.c @ v)
    return max(0.0, primal_obj - dual_obj) + leak


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to certified optimality.

    The normalized primal residuals must stay within TOL_FEAS and the
    recomputed duality gap within TOL_GAP_REL·(1+|objective|). Infeasible
    and unbounded problems come back as a status, numerical failures raise
    SolverError — never a silent wrong answer.
    """
    a_ub = lp.A_ub if lp.n_rows else None
    b_ub = lp.b_ub if lp.n_rows else None
    res = linprog(
        lp.c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=lp.bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": TOL_FEAS,
            "dual_feasibility_tolerance": TOL_FEAS,
        },
    )
    if res.status == 2:
        return LpSolution(v=np.full(lp.n_vars, np.nan), objective=np.nan, status=INFEASIBLE, duality_gap_bound=np.inf)
    if res.status == 3:
        return LpSolution(v=np.full(lp.n_vars, np.nan), objective=-np.inf, status=UNBOUNDED, duality_gap_bound=np.inf)
    if res.status != 0:
        raise SolverError(f"LP backend failed: status={res.status} ({res.message})")

    v = np.asarray(res.x, dtype=float)
    objective = float(lp.c @ v)

    if lp.n_rows:
        lam = np.maximum(0.0, -np.asarray(res.ineqlin.marginals, dtype=float))
    else:
        lam = np.zeros(0)
    mu_lo = np.maximum(0.0, np.asarray(res.lower.marginals, dtype=float))
    mu_hi = np.maximum(0.0, -np.asarray(res.upper.marginals, dtype=float))

    rows, bnds = _primal_violations(lp, v)
    worst = max(rows.max() if rows.size else 0.0, bnds.max() if bnds.size else 0.0)
    if worst > TOL_FEAS:
        raise SolverError(f"backend returned primal-infeasible point (normalized violation {worst:.3e})")

    gap = _certified_gap(lp, v, lam, mu_lo, mu_hi)
    limit = TOL_GAP_REL * (1.0 + abs(objective))
    if gap > limit:
        raise SolverError(f"optimality certificate failed: gap bound {gap:.3e} > {limit:.3e}")

    return LpSolution(
        v=v,
        objective=objective,
        status=OPTIMAL,
        duality_gap_bound=gap,
        dual_ineq=lam,
        dual_lower=mu_lo,
        dual_upper=mu_hi,
    )
