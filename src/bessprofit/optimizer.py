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
state of charge, one per step, and recovers the dispatch in one shared
backward pass of O(1) work per step; the SoC is the only state, so no LP
is needed. By the count S of distinct cost slopes, the forward pass is a
vectorised slope-domain scan when S is small, as under any time-of-use
tariff, and a list DP of sorted slope lists otherwise (per-step prices).

``validate_dispatch`` re-derives every constraint from the returned
arrays with plain numpy. ``select_ppc`` solves one problem at each
candidate contract level.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .battery import BatterySpec
from .errors import InfeasibleDispatchError
from .timeseries import PpcLevel, PpcSchedule, ScenarioSeries

__all__ = [
    "DispatchProblem",
    "DispatchSolution",
    "PpcSelection",
    "solve_dispatch",
    "select_ppc",
    "validate_dispatch",
    "DEFAULT_EPSILON",
]

DEFAULT_EPSILON = 1e-6  # €/kWh tie-break on battery movement
_DUST = 1e-12  # kWh; solver residue below this is treated as zero
# scan/list-DP route rule in distinct slopes. At 576-864 steps the list DP
# wins from about 40-50; moving the rule changes how the inputs between round.
_SCAN_MAX_SLOPES = 48


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


def build_lp(prob): raise NotImplementedError("the dispatch LP is in tests/_reference.py")  # see bessprofit.lp


def solve_dispatch(prob: DispatchProblem) -> DispatchSolution:
    """Solve the dispatch exactly and re-express it with true efficiencies.

    With epsilon > 0 an optimum never charges and discharges in the same
    step, so step i costs f_i(x) = price_i·max(0, z_i + s_fric(x)) +
    epsilon·|x| for a stored-energy change x in [l, u_i]: the discharge
    ramp below, the charge ramp and the peak cap above. f_i is convex and
    piecewise linear with at most 3 pieces, split at x = 0 and at the
    billing kink where z_i + s_fric(x) = 0, with slope −epsilon below both
    kinks. The minimal cost of reaching SoC b after step i, V_i, is V_{i-1}
    infimally convolved with f_i and clipped to [L_i, b_max], where L_i is
    b_min, or b_0 at the last step under terminal_soc. Let G_i(σ) be the
    SoC at which V_i's slope reaches σ. For every piece j of f_i the
    forward pass records q_j = G_{i-1}(slope_j) + start_j, and the shared
    backward pass recovers x_i = l + Σ_j clip(b_i − q_j, 0, len_j).

    The forward route depends only on S, the count of distinct slopes over
    all pieces. Up to _SCAN_MAX_SLOPES it is the slope-domain scan:
    G_i(σ) = clip(G_{i-1}(σ) + F_i(σ), L_i, b_max), with F_i(σ) = l plus the
    length of f_i's pieces with slope below σ, for σ in {−∞, each slope, 0,
    +∞}; clip maps compose associatively, so NumPy runs the n steps as a
    blocked scan of about 2√n iterations. Above it (per-step prices) it is
    the list DP, which keeps V_i as slope-sorted segment lists. A piece
    that the same step's clip removes is never inserted there, and the
    result is bit for bit that of merging it. The two routes round
    differently: x may differ by about 1e-14 kWh.

    Tie rule: the final SoC is the smallest minimiser of V_n on
    [L_n, b_max], and going backward each b_{i-1} is the smallest SoC from
    which reaching b_i stays optimal, so where a step's own move and an
    earlier one cost the same, the step's own move is taken.

    Raises InfeasibleDispatchError naming the first step after which no SoC path
    meets the peak cap. The returned energy_cost uses the true billing
    Σ price·max(0, z + s). It never exceeds the no-battery baseline
    cost when the no-battery plan meets the peak cap, since that plan is
    then feasible; a cap below the baseline peak can force a dearer bill.
    """
    return _solve(prob)


def _solve(prob: DispatchProblem, forward=None) -> DispatchSolution:
    """solve_dispatch with its forward route, when given, forced."""
    scenario, spec = prob.scenario, prob.spec
    n, z = scenario.n, scenario.z
    lo_x, hi_x, start, length, slope = steps = _pieces(prob)
    if forward is None and (slopes := _distinct(slope)).size <= _SCAN_MAX_SLOPES:
        b_i, q = _scan_forward(prob, *steps, slopes)
    else:
        b_i, q = (forward or _list_forward)(prob, *steps)

    # x_i = l + Σ_j clip(b_i − q_j, 0, len_j), the top, mid and bottom
    # pieces in that order
    x = [0.0] * n
    rows = zip(range(n - 1, -1, -1), *map(reversed, q), *map(reversed, length.tolist()))
    for i, q0, q1, q2, l0, l1, l2 in rows:
        d0, d1, d2 = b_i - q0, b_i - q1, b_i - q2
        x_i = (lo_x + (l0 if d0 >= l0 else (d0 if d0 > 0.0 else 0.0))
               + (l1 if d1 >= l1 else (d1 if d1 > 0.0 else 0.0))
               + (l2 if d2 >= l2 else (d2 if d2 > 0.0 else 0.0)))
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
    return DispatchSolution(x_plus, x_minus, s, b, theta, energy_cost, prob.eta_fric)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as np.unique gives them. NumPy 2's
    np.unique imports numpy.ma on its first call, about 20 ms (2-core
    host) in every forked sweep worker."""
    v = np.sort(values, axis=None)
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _pieces(prob: DispatchProblem):
    """Every step's move range [lo_x, hi_x_i] and f_i's top, middle and
    bottom pieces as (3, n) start, length and slope arrays, in that order;
    an absent piece has length 0."""
    scenario, spec = prob.scenario, prob.spec
    n, h, z, price = scenario.n, scenario.h, scenario.z, scenario.price
    a_ch = 1.0 / (spec.eta_ch * prob.eta_fric)
    a_dis = spec.eta_dis * prob.eta_fric

    lo_x = spec.delta_min_kw * h
    # peak cap on the true grid side: z + s(x) <= p_max_set·h
    head = prob.p_max_set * h - z
    hi_x = np.minimum(spec.delta_max_kw * h, np.where(head >= 0, head * spec.eta_ch, head / spec.eta_dis))

    # f_i's kinks are x = 0 and the billing kink where z_i + s_fric(x) = 0;
    # the top piece starts at the higher kink and the middle one at the
    # lower, each clipped to [lo_x, hi_x_i]
    eps = float(prob.epsilon)
    imports = z > 0.0
    kinks = -z / np.where(imports, a_dis, a_ch)
    start, end, slope = np.empty((3, 3, n))
    np.maximum(kinks, 0.0, out=end[1])
    np.minimum(kinks, 0.0, out=end[2])
    np.maximum(end[1:], lo_x, out=start[:2])
    start[2] = lo_x
    end[0] = hi_x
    np.minimum(end[1:], hi_x, out=end[1:])
    np.multiply(price, a_ch, out=slope[0])
    slope[0] += eps
    np.multiply(price, a_dis, out=slope[1])
    slope[1] -= eps
    np.copyto(slope[1], eps, where=~imports)
    slope[2] = -eps
    return lo_x, hi_x, start, np.where(end > start, end - start, 0.0), slope


def _list_forward(prob: DispatchProblem, lo_x, hi_x, start, length, slope):
    """The list DP: V_i as its domain start `lo` plus segments sorted by
    slope. Returns the final SoC and the q_j of each piece, as in _pieces.

    Most steps would insert a piece and clip it away again at once: the
    bottom piece, whose slope −eps is the least in V, at the SoC floor,
    and a top piece past the last segment at b_max. Both are held aside
    until the step's clip has run, and only what the clip leaves of them
    is inserted. The clip cuts them by the same float operations as in
    the lists, and hi adds the lengths in list order, so the result is bit
    for bit that of merging every piece first. A piece whose slope is
    already in V merges at once."""
    spec, n, b_max = prob.spec, prob.scenario.n, prob.spec.b_max
    x_floor = lo_x - _DUST
    floors = [spec.b_min] * n
    if prob.terminal_soc:
        floors[-1] = spec.b_0
    stuck = hi_x < x_floor  # a step with no move; the first one fails
    m = int(stuck.argmax()) if stuck.any() else n
    lo = spec.b_0
    slopes: list[float] = []
    lens: list[float] = []
    q: tuple[list[float], ...] = ([], [], [])
    add0, add1, add2 = (q_j.append for q_j in q)
    s2 = float(slope[2, 0])  # every bottom piece starts at lo_x, with slope −eps
    rows = zip(*start[:2, :m].tolist(), *length[:, :m].tolist(), *slope[:2, :m].tolist(), floors)
    for p0, p1, l0, l1, l2, s0, s1, b_floor in rows:
        # pieces highest slope first, so a piece inserted into V never
        # shifts the crossing point of a lower-sloped piece of the same
        # step; an absent piece moves nothing. top and bottom are the
        # lengths held aside past the end and before the front of V.
        top = bottom = 0.0
        if l0:
            if not slopes or slopes[-1] < s0:
                add0(lo + sum(lens) + p0)
                top = l0
            else:
                k = bisect_left(slopes, s0)
                add0(lo + (sum(lens[:k]) if k else 0) + p0)
                if slopes[k] == s0:
                    lens[k] += l0
                else:
                    slopes.insert(k, s0)
                    lens.insert(k, l0)
        else:
            add0(0.0)
        if l1:
            k = bisect_left(slopes, s1)
            add1(lo + (sum(lens[:k]) if k else 0) + p1)
            if k < len(slopes) and slopes[k] == s1:
                lens[k] += l1
            elif top and s1 == s0:  # k is past the end, where top sits
                top += l1
            else:
                slopes.insert(k, s1)
                lens.insert(k, l1)
        else:
            add1(0.0)
        if l2:  # k = 0; a present bottom piece has lo_x < 0, so lo + lo_x == lo + 0 + lo_x
            add2(lo + lo_x)
            if slopes and slopes[0] == s2:
                lens[0] += l2
            elif top and not slopes and s0 == s2:
                top += l2
            else:
                bottom = l2
        else:
            add2(0.0)

        # lo never rises: lo_x <= 0 and b_floor <= b_max, so only hi can
        # miss the box
        lo += lo_x
        # one sum over the merged order: from Python 3.12 sum() compensates,
        # so adding top to sum(lens, bottom) could round differently
        if top:
            lens.append(top)
            hi = lo + sum(lens, bottom)
            lens.pop()
        else:
            hi = lo + sum(lens, bottom)
        if hi < b_floor - _DUST:
            raise _unreachable(prob, len(q[0]) - 1)
        if lo < b_floor:
            cut = b_floor - lo
            if bottom > cut:
                bottom -= cut
            else:
                cut -= bottom
                bottom = 0.0
                while lens and lens[0] <= cut:
                    cut -= lens.pop(0)
                    slopes.pop(0)
                if lens:
                    lens[0] -= cut
                elif top > cut:
                    top -= cut
                else:
                    top = 0.0
            lo = b_floor
        if hi > b_max:
            cut = hi - b_max
            if top > cut:
                top -= cut
            else:
                cut -= top
                top = 0.0
                while lens and lens[-1] <= cut:
                    cut -= lens.pop()
                    slopes.pop()
                if lens:
                    lens[-1] -= cut
                elif bottom > cut:
                    bottom -= cut
                else:
                    bottom = 0.0
        if bottom:
            slopes.insert(0, s2)
            lens.insert(0, bottom)
        if top:
            slopes.append(s0)
            lens.append(top)
    if m < n:
        raise _unreachable(prob, m)
    return lo + sum(lens[: bisect_left(slopes, 0.0)]), q


def _scan_forward(prob: DispatchProblem, lo_x, hi_x, start, length, slope, slopes=None):
    """The slope-domain scan: G_i(σ) for σ in {−∞, every slope, 0, +∞},
    each column a clip-map recursion. ``slopes`` is _distinct(slope),
    when the caller has it. Returns the final SoC and the q_j of each
    piece, as in _pieces.

    The steps run in blocks of about √(n/2), the last one padded. The
    increments f_i(σ) are stored step-major: a[k] is the contiguous
    (C, blocks) slab of step k of every block, so each prefix step reads
    and writes whole slabs. Every element sees the float operations of a
    block-major scan, in the same order."""
    spec, n, b_0, b_max = prob.spec, prob.scenario.n, prob.spec.b_0, prob.spec.b_max
    if slopes is None:
        slopes = _distinct(slope)
    cols = _distinct(np.concatenate((slopes, (-np.inf, 0.0, np.inf))))
    c = cols.size
    size = max(1, math.isqrt(n // 2))
    blocks = -(-n // size)
    m = blocks * size  # the padded tail steps are discarded

    # f_i(σ) = lo_x + the lengths of f_i's pieces with slope below σ,
    # summed top, mid, bottom; a row per σ, and a padded step has no
    # pieces. Every bottom piece has the slope −eps.
    pad = np.zeros((2, 3, m))
    pad[0, :, :n], pad[1, :, :n] = length, slope
    f = np.empty((c, m))
    term = np.empty_like(f)
    col = cols[:, None]
    np.less(pad[1, 0], col, out=f)
    f *= pad[0, 0]
    np.less(pad[1, 1], col, out=term)
    term *= pad[0, 1]
    f += term
    np.multiply(slope[2, 0] < col, pad[0, 2], out=term)
    f += term
    f += lo_x
    floor = np.full(n, spec.b_min)
    floor[-1] = b_0 if prob.terminal_soc else spec.b_min

    # The map y ↦ clip(y + a, lo, hi) followed by (a2, l2, u2) is
    # (a + a2, clip(lo + a2, l2, u2), clip(hi + a2, l2, u2)). Compose the
    # prefix maps within the blocks, carry the SoC across the blocks in
    # turn, then apply every prefix map to its block's entry.
    a = f.reshape(c, blocks, size).transpose(2, 0, 1).copy()  # a[k, σ, block]
    lows = [spec.b_min] * size  # the floor of step k of every block
    if prob.terminal_soc:
        lows[(n - 1) % size] = np.where(np.arange(blocks) < blocks - 1, spec.b_min, b_0)
    bounds = np.empty((size, 2, c, blocks))  # lo and hi of each prefix map
    bounds[0, 0], bounds[0, 1] = lows[0], b_max
    steps = list(a)
    for lo_hi, cur, a_prev, a_k, low in zip(bounds, bounds[1:], steps, steps[1:], lows[1:]):
        np.add(lo_hi, a_k, out=cur)
        np.maximum(cur, low, out=cur)
        np.minimum(cur, b_max, out=cur)
        np.add(a_k, a_prev, out=a_k)
    entry = np.empty((blocks, c))
    entry[0] = b_0
    ys = list(entry)
    for y, y_next, a_blk, lo, hi in zip(ys, ys[1:], a[-1].T, bounds[-1, 0].T, bounds[-1, 1].T):
        np.add(y, a_blk, out=y_next)
        np.maximum(y_next, lo, out=y_next)
        np.minimum(y_next, hi, out=y_next)
    g = a  # G_i, in place of the prefix sums
    np.add(entry.T, a, out=g)
    np.maximum(g, bounds[:, 0], out=g)
    np.minimum(g, bounds[:, 1], out=g)

    # G_{i-1} at σ = −∞, +∞ and at each piece's slope; step i is step
    # i % size of block i // size
    at = (np.arange(size) * (c * blocks) + np.arange(blocks)[:, None]).ravel()[:n]
    prev = at[:-1]
    g_prev = np.empty((2, n))
    g_prev[:, 0] = b_0
    g.take(prev, out=g_prev[0, 1:])
    g.take(prev + (c - 1) * blocks, out=g_prev[1, 1:])
    # the first step with no move, or whose pre-clip domain misses the box
    bad = ((hi_x < lo_x - _DUST) | (g_prev[1] + f[-1, :n] < floor - _DUST)
           | (g_prev[0] + f[0, :n] > b_max + _DUST))
    if bad.any():
        raise _unreachable(prob, int(bad.argmax()))
    q = np.empty((3, n))
    q[:, 0] = b_0
    g.take(prev + np.searchsorted(cols, slope[:, 1:]) * blocks, out=q[:, 1:])
    q += start
    return float(g.take(at[-1] + np.searchsorted(cols, 0.0) * blocks)), q.tolist()


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


def _unholdable(scenario: ScenarioSeries, spec: BatterySpec, cap_kw: float, z_peak: float) -> bool:
    """Whether the solver must reject ``cap_kw`` as a peak cap, by one of two
    tests; ``z_peak`` is the scenario's largest net load z_i (kWh).

    - A stuck step: the solver fails a step whose largest move under the
      cap, (cap·h − z_i)/eta_dis when negative, lies more than _DUST below
      the discharge ramp. That move is least at the peak step, and the
      test takes _pieces' float operations, so it fires exactly when the
      solver's stuck-step test does.
    - An overdrawn run: a step with z_i > cap·h cannot charge and must
      discharge (z_i − cap·h)/eta_dis, so a run of consecutive such steps
      draws their sum from storage. The solver forgives up to _DUST at each
      step's discharge ramp and again at its SoC floor, so a run fails
      when it needs more than b_max − b_min plus twice _DUST per step.
    """
    h = scenario.h
    if (cap_kw * h - z_peak) / spec.eta_dis < spec.delta_min_kw * h - _DUST:
        return True
    over = np.maximum(scenario.z - cap_kw * h, 0.0)
    runs = np.flatnonzero(np.diff(over > 0.0, prepend=False, append=False)).reshape(-1, 2)
    need = np.add.reduceat(over, runs[:, 0]) / spec.eta_dis
    return bool(np.any(need > spec.b_max - spec.b_min + 2 * _DUST * (runs[:, 1] - runs[:, 0])))


@dataclass(frozen=True)
class PpcSelection:
    """Outcome of the peak-contract choice for one battery candidate:
    ``dispatch`` solves ``problem``, the candidate's problem capped at ``level``."""

    level: PpcLevel
    old_level: PpcLevel
    g_pd: float
    problem: DispatchProblem
    dispatch: DispatchSolution


def select_ppc(
    prob: DispatchProblem,
    ppc: PpcSchedule,
    old_level_kva: float | None = None,
) -> PpcSelection:
    """Pick the lowest feasible peak-power contract level.

    Each level is tried as the peak cap of ``prob``, whose own p_max_set
    is not used. A level below the current one is skipped without a solve
    when ``_unholdable`` shows that the solver would reject it: its peak
    step is stuck, or a run of steps above it draws more than the usable
    energy.

    The chosen level is the smallest feasible one left, never above the
    currently contracted level, which is always solved: its infeasibility
    raises, naming the failing step. The €-gain is the per-day price
    difference times the window's day count. The capped problem and its
    dispatch are returned so callers don't re-solve.
    """
    scenario, spec = prob.scenario, prob.spec
    z_peak = float(np.max(scenario.z))
    peak_kw = z_peak / scenario.h
    if old_level_kva is not None:
        old = ppc.level_for(old_level_kva)
    else:
        old = ppc.smallest_covering(peak_kw)
        if old is None:
            raise InfeasibleDispatchError(
                f"baseline peak {peak_kw:.2f} kW exceeds the largest PPC level"
            )

    # the old level's dispatch is the fallback, and its infeasibility is final
    for level in [lv for lv in ppc.levels if lv.kva < old.kva] + [old]:
        if level is not old and _unholdable(scenario, spec, level.kva, z_peak):
            continue
        capped = replace(prob, p_max_set=level.kva)
        try:
            dispatch = solve_dispatch(capped)
        except InfeasibleDispatchError:
            if level is old:
                raise
        else:
            break

    g_pd = (old.eur_per_day - level.eur_per_day) * scenario.day_count
    return PpcSelection(level, old, g_pd, capped, dispatch)
