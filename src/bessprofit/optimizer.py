"""Co-optimized battery dispatch under ToU prices, zero feed-in, and a peak cap.

The dispatch problem minimizes the billed import cost over the horizon.
Per step i the stored-energy change is split into a charge part x_plus_i
and a discharge part x_minus_i (both >= 0); the grid side of the battery
is s_i = x_plus_i/eta_ch − eta_dis·x_minus_i, the billed energy is
theta_i = max(0, z_i + s_i), and import power (z_i + s_i)/h must stay
under the contracted cap. Exports earn nothing. A friction coefficient
eta_fric in (0, 1] worsens the efficiencies *inside the billing
constraint only*, which suppresses low-margin transactions; the physical
SoC dynamics and the peak constraint always use the true efficiencies.
A tiny epsilon penalty on total battery movement breaks the degeneracy
that would otherwise allow cost-free simultaneous charge+discharge
whenever z_i + s_i < 0. With terminal_soc the final SoC may not end
below its initial value.

A ``DispatchProblem`` holds the whole statement: scenario, battery, cap,
friction, epsilon and terminal_soc. Every route reads it from that one
value. ``solve_dispatch`` solves the problem exactly with a forward
dynamic program over convex piecewise-linear value functions of the
state of charge, one per step, and recovers the dispatch in a backward
pass of O(1) work per step; the SoC is the only state, so no LP is
needed.

``build_lp`` states the same problem as a sparse linear program with
variables (x_plus_i, x_minus_i, theta_i, b_i) per step; ``lp.solve``
certifies its optimum. That LP is the reference the tests hold the
dynamic program to, and only it needs SciPy.
``validate_dispatch`` re-derives every constraint from the returned
arrays with plain numpy. ``select_ppc`` solves one problem at each
candidate contract level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .battery import BatterySpec
from .errors import InfeasibleDispatchError
from .timeseries import PpcLevel, PpcSchedule, ScenarioSeries, peak_import_kw

if TYPE_CHECKING:
    from .lp import LinearProgram

__all__ = [
    "DispatchProblem",
    "DispatchSolution",
    "PpcSelection",
    "build_lp",
    "solve_dispatch",
    "select_ppc",
    "validate_dispatch",
    "DEFAULT_EPSILON",
]

DEFAULT_EPSILON = 1e-6  # €/kWh tie-break on battery movement
_DUST = 1e-12  # kWh; solver residue below this is treated as zero


@dataclass(frozen=True)
class DispatchProblem:
    """One dispatch instance: scenario, battery, peak cap (kW), friction,
    epsilon tie-break (€/kWh, finite; below 0 the step cost is not convex)
    and the terminal SoC rule.
    """

    scenario: ScenarioSeries
    spec: BatterySpec
    p_max_set: float = np.inf
    eta_fric: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    terminal_soc: bool = False

    def __post_init__(self):
        if not (0 < self.eta_fric <= 1):
            raise ValueError("eta_fric must be in (0, 1]")
        if not self.p_max_set >= 0:
            raise ValueError("p_max_set must be >= 0")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.epsilon == np.inf:
            raise ValueError("epsilon must be finite, got inf")


@dataclass(frozen=True)
class DispatchSolution:
    """Optimal dispatch, re-expressed with the true (unfrictioned) mapping.

    x_plus/x_minus are per-step charge/discharge energies (kWh), s the
    grid-side storage energy, b the end-of-step SoC, theta the billed
    energy max(0, z + s), energy_cost = Σ price·theta in €, and eta_fric
    the friction the dispatch was solved under.
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    s: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    energy_cost: float
    eta_fric: float = 1.0

    @property
    def x(self) -> np.ndarray:
        return self.x_plus - self.x_minus

    def soc_trajectory(self, b_0: float) -> np.ndarray:
        """SoC including the initial state, for cycle counting."""
        return np.concatenate(([b_0], self.b))


def _theta_upper_bounds(prob: DispatchProblem, z: np.ndarray) -> np.ndarray:
    # theta never needs to exceed the largest possible billing RHS, and a
    # finite box makes the LP's optimality certificate rigorous.
    spec = prob.spec
    h = prob.scenario.h
    s_fric_hi = spec.delta_max_kw * h / (spec.eta_ch * prob.eta_fric)
    return np.maximum(0.0, z + s_fric_hi)


def build_lp(prob: DispatchProblem) -> LinearProgram:
    """Assemble the dispatch LP.

    Variable layout, n = step count: x_plus [0, n), x_minus [n, 2n),
    theta [2n, 3n), b [3n, 4n). Objective Σ price_i·theta_i plus
    epsilon·Σ(x_plus_i + x_minus_i). Rows: billing
    theta_i >= z_i + s_fric_i; peak (z_i + s_i) <= p_max_set·h (skipped
    when the cap is infinite); the SoC recursion as <=/>= pairs. Ramp
    limits and SoC box are variable bounds. With terminal_soc the final
    SoC must end at or above its initial value. Needs SciPy, which the
    rest of the package does not.
    """
    import scipy.sparse as sp

    from .lp import LinearProgram

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

    bounds = np.empty((n_vars, 2))
    bounds[xp] = [0.0, 0.0]
    bounds[xp, 1] = spec.delta_max_kw * h
    bounds[xm] = [0.0, 0.0]
    bounds[xm, 1] = -spec.delta_min_kw * h
    bounds[th, 0] = 0.0
    bounds[th, 1] = _theta_upper_bounds(prob, z)
    bounds[bb, 0] = spec.b_min
    bounds[bb, 1] = spec.b_max

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
    return LinearProgram(c=c, A_ub=a_ub, b_ub=np.concatenate(rhs), bounds=bounds)


def solve_dispatch(prob: DispatchProblem) -> DispatchSolution:
    """Solve the dispatch exactly and re-express it with true efficiencies.

    With epsilon > 0 an optimum never charges and discharges in the same
    step, so step i costs f_i(x) = price_i·max(0, z_i + s_fric(x)) +
    epsilon·|x| for a stored-energy change x in [l, u_i]: the discharge
    ramp below, the charge ramp and the peak cap above. f_i is convex and
    piecewise linear with at most 3 pieces, split at x = 0 and at the
    billing kink where z_i + s_fric(x) = 0, with slope −epsilon below both
    kinks. The minimal cost of reaching
    SoC b after step i, V_i, is V_{i-1} infimally convolved with f_i and
    clipped to [b_min, b_max]; the convolution merges sorted slope lists.
    For every piece j of f_i the forward pass records where it sits in the
    merged list, q_j = beta_j + p_j, where p_j is the piece's start and
    beta_j the SoC at which V_{i-1}'s slope reaches the piece's slope, so
    the backward pass recovers x_i = l + Σ_j clip(b_i − q_j, 0, len_j).

    Tie rule: the final SoC is the smallest minimiser of V_n on
    [b_0 if terminal_soc else b_min, b_max], and going backward each
    b_{i-1} is the smallest SoC from which reaching b_i stays optimal, so
    where a step's own move and an earlier one cost the same, the
    step's own move is taken.

    Raises InfeasibleDispatchError naming the first step after which no SoC path
    meets the peak cap. The returned energy_cost uses the true billing
    Σ price·max(0, z + s). It never exceeds the no-battery baseline
    cost when the no-battery plan meets the peak cap, since that plan is
    then feasible; a cap below the baseline peak can force a dearer bill.
    """
    scenario, spec = prob.scenario, prob.spec
    n, h = scenario.n, scenario.h
    z = scenario.z
    a_ch = 1.0 / (spec.eta_ch * prob.eta_fric)
    a_dis = spec.eta_dis * prob.eta_fric

    lo_x = spec.delta_min_kw * h
    # peak cap on the true grid side: z + s(x) <= p_max_set·h
    head = prob.p_max_set * h - z
    hi_x = np.minimum(
        spec.delta_max_kw * h, np.where(head >= 0, head * spec.eta_ch, head / spec.eta_dis)
    )

    # f_i's top and middle slopes and its two kinks, x = 0 and the billing
    # kink where z_i + s_fric(x) = 0, each step at once
    eps = float(prob.epsilon)
    tops = (scenario.price * a_ch + eps).tolist()
    mids = np.where(z > 0.0, scenario.price * a_dis - eps, eps).tolist()
    kinks = np.where(z > 0.0, -z / a_dis, -z / a_ch)
    lows, highs = np.minimum(kinks, 0.0).tolist(), np.maximum(kinks, 0.0).tolist()
    b_min, b_max, x_floor = spec.b_min, spec.b_max, lo_x - _DUST

    # V_i as its domain start `lo` plus segments sorted by slope
    lo = spec.b_0
    slopes: list[float] = []
    lens: list[float] = []
    plan: list[list[tuple[float, float]]] = []
    for i, (ui, top, mid, low, high) in enumerate(zip(hi_x.tolist(), tops, mids, lows, highs)):
        if ui < x_floor:
            raise _unreachable(prob, i)
        # pieces of f_i, highest slope first, so a piece inserted into V
        # never shifts the crossing point of a lower-sloped piece of the
        # same step; every slope in V is >= -eps, so the bottom piece
        # lands at the front
        step = []
        for start, end, slope in ((high, ui, top), (low, high, mid), (lo_x, low, -eps)):
            if start < lo_x:
                start = lo_x
            if end > ui:
                end = ui
            if end <= start:
                continue
            length = end - start
            k = bisect_left(slopes, slope)
            # k = 0 needs no sum; the bottom piece of most steps lands there
            step.append((lo + (sum(lens[:k]) if k else 0) + start, length))
            if k < len(slopes) and slopes[k] == slope:
                lens[k] += length
            else:
                slopes.insert(k, slope)
                lens.insert(k, length)
        plan.append(step)

        lo += lo_x
        hi = lo + sum(lens)
        b_floor = spec.b_0 if prob.terminal_soc and i == n - 1 else b_min
        if hi < b_floor - _DUST or lo > b_max + _DUST:
            raise _unreachable(prob, i)
        if lo < b_floor:
            cut = b_floor - lo
            while lens and lens[0] <= cut:
                cut -= lens.pop(0)
                slopes.pop(0)
            if lens:
                lens[0] -= cut
            lo = b_floor
        if hi > b_max:
            cut = hi - b_max
            while lens and lens[-1] <= cut:
                cut -= lens.pop()
                slopes.pop()
            if lens:
                lens[-1] -= cut
            if lo > b_max:  # a domain within _DUST above the box
                lo = b_max

    b_i = lo + sum(lens[: bisect_left(slopes, 0.0)])
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x_i = lo_x
        for q, length in plan[i]:
            d = b_i - q
            x_i += length if d >= length else (d if d > 0.0 else 0.0)
        x[i] = x_i
        b_i -= x_i

    x_arr = np.asarray(x)
    x_plus = np.maximum(x_arr, 0.0)
    x_minus = np.maximum(-x_arr, 0.0)
    x_plus[x_plus < _DUST] = 0.0
    x_minus[x_minus < _DUST] = 0.0

    s = x_plus / spec.eta_ch - spec.eta_dis * x_minus
    b = spec.b_0 + np.cumsum(x_plus - x_minus)
    if prob.terminal_soc:
        # the DP's final SoC is >= b_0 exactly; the running sum can round below it
        b[-1] = max(b[-1], spec.b_0)
    theta = np.maximum(0.0, z + s)
    energy_cost = float(np.sum(scenario.price * theta))

    return DispatchSolution(
        x_plus=x_plus,
        x_minus=x_minus,
        s=s,
        b=b,
        theta=theta,
        energy_cost=energy_cost,
        eta_fric=prob.eta_fric,
    )


def _unreachable(prob: DispatchProblem, step: int) -> InfeasibleDispatchError:
    return InfeasibleDispatchError(
        f"peak cap {prob.p_max_set} kW unreachable at step {step}", step=step
    )


def validate_dispatch(
    prob: DispatchProblem,
    dispatch: DispatchSolution,
    tol: float = 1e-7,
) -> list[str]:
    """Independent constraint audit of a dispatch; returns violation messages.

    Recomputes, with plain array arithmetic only: the ramp limits, the SoC
    recursion and box, the grid-side mapping, billed-energy non-negativity
    and the true billing inequality, the peak cap, the billing identity
    theta = max(0, z + s) wherever the price is positive, the final SoC
    under terminal_soc, and the reported energy cost. The friction-modified
    billing is intentionally not checked: the returned dispatch must stand
    on the original semantics.
    """
    scenario, spec = prob.scenario, prob.spec
    h = scenario.h
    z = scenario.z
    out: list[str] = []

    def flag(mask: np.ndarray, label: str, values: np.ndarray):
        idx = np.flatnonzero(mask)
        for i in idx[:5]:
            out.append(f"{label} at step {i}: {values[i]:.3e}")
        if idx.size > 5:
            out.append(f"{label}: {idx.size - 5} more steps")

    xp, xm = dispatch.x_plus, dispatch.x_minus
    flag(xp < -tol, "negative charge energy", xp)
    flag(xm < -tol, "negative discharge energy", xm)
    over_p = xp - spec.delta_max_kw * h
    over_m = xm - (-spec.delta_min_kw * h)
    flag(over_p > tol, "charge ramp exceeded", over_p)
    flag(over_m > tol, "discharge ramp exceeded", over_m)

    b_expect = spec.b_0 + np.cumsum(xp - xm)
    drift = np.abs(dispatch.b - b_expect)
    flag(drift > tol, "SoC recursion drift", drift)
    flag(dispatch.b < spec.b_min - tol, "SoC below minimum", dispatch.b)
    flag(dispatch.b > spec.b_max + tol, "SoC above maximum", dispatch.b)
    if prob.terminal_soc and dispatch.b[-1] < spec.b_0 - tol:
        out.append(f"final SoC below initial: {dispatch.b[-1]:.3e} < {spec.b_0:.3e}")

    s_expect = xp / spec.eta_ch - spec.eta_dis * xm
    s_err = np.abs(dispatch.s - s_expect)
    flag(s_err > tol, "grid-side mapping error", s_err)

    theta = dispatch.theta
    flag(theta < -tol, "negative billed energy", theta)
    billing_gap = (z + dispatch.s) - theta
    flag(billing_gap > tol, "billed energy below net import", billing_gap)
    if np.isfinite(prob.p_max_set):
        peak_kw = (z + dispatch.s) / h
        over = peak_kw - prob.p_max_set
        flag(over > tol, "peak cap exceeded (kW)", over)

    priced = scenario.price > 0
    theta_err = np.abs(theta - np.maximum(0.0, z + dispatch.s))
    flag(priced & (theta_err > tol), "billed energy != max(0, z+s)", theta_err)

    cost = float(np.sum(scenario.price * theta))
    if abs(cost - dispatch.energy_cost) > tol * (1.0 + abs(cost)):
        out.append(f"energy_cost mismatch: reported {dispatch.energy_cost!r}, recomputed {cost!r}")
    return out


@dataclass(frozen=True)
class PpcSelection:
    """Outcome of the peak-contract choice for one battery candidate."""

    level: PpcLevel
    old_level: PpcLevel
    g_pd: float
    dispatch: DispatchSolution


def select_ppc(
    prob: DispatchProblem,
    ppc: PpcSchedule,
    old_level_kva: float | None = None,
) -> PpcSelection:
    """Pick the lowest feasible peak-power contract level.

    Each level is tried as the peak cap of ``prob``, whose own p_max_set
    is not used. The candidate threshold is the baseline peak import power
    plus the battery's (negative) discharge power; the chosen level is the
    smallest level at or above that threshold whose dispatch is feasible,
    never above the currently contracted level. The €-gain is the per-day price
    difference times the window's day count, floored at zero. The dispatch
    solved at the chosen cap is returned so callers don't re-solve.
    """
    scenario = prob.scenario
    peak_kw = peak_import_kw(scenario)
    if old_level_kva is not None:
        old = ppc.level_for(old_level_kva)
    else:
        old = ppc.smallest_covering(peak_kw)
        if old is None:
            raise InfeasibleDispatchError(
                f"baseline peak {peak_kw:.2f} kW exceeds the largest PPC level"
            )

    threshold = peak_kw + prob.spec.delta_min_kw
    candidates = [lv for lv in ppc.levels if lv.kva >= threshold and lv.kva < old.kva]

    # the old level's dispatch is the fallback, and its infeasibility is final
    for level in candidates + [old]:
        try:
            dispatch = solve_dispatch(replace(prob, p_max_set=level.kva))
        except InfeasibleDispatchError:
            if level is old:
                raise
        else:
            break

    g_pd = max(0.0, (old.eur_per_day - level.eur_per_day) * scenario.day_count)
    return PpcSelection(
        level=level,
        old_level=old,
        g_pd=g_pd,
        dispatch=dispatch,
    )
