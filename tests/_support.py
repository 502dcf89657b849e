"""Shared builders and reference routes for the test suite.

Everything here is deterministic: fixture-backed scenarios priced by the
shipped tariff, a seeded noisy-price series used by the friction-tuning
tests, the per-row fixture writer and NumPy-scalar AR(1) noise that the
fixture generator is held to, a seeded generator of small dispatch
instances, the grid dynamic-programming oracle the solver is held to (the LP
reference is in ``_reference``), a list DP that merges every piece
before its clip, the block-major slope-domain scan, the billing
recomputed from a dispatch's arrays, and the environment for running the
CLI as a subprocess.
Random instances come with per-step prices or, repriced by
``tariff_priced``, with a two-period tariff.
"""

from __future__ import annotations

import hashlib
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np

import bessprofit
from bessprofit import fixtures
from bessprofit.battery import make_spec
from bessprofit.cycles import count_cycles
from bessprofit.errors import InfeasibleDispatchError
from bessprofit.fixtures import FIXTURE_NAMES, fixture_arrays
from bessprofit.optimizer import _DUST, DispatchProblem, DispatchSolution, _distinct, _unreachable
from bessprofit.timeseries import DEFAULT_TOU_TARIFF, ScenarioSeries, TariffPeriod, TariffSchedule

H = 1.0 / 12.0  # fixture sample spacing, hours

# SoC grid used whenever the dynamic-programming oracle is the reference
DP_GRID = 0.01
# the oracle refuses instances longer than this, or finer grids
DP_MAX_STEPS = 50
DP_MAX_GRID_POINTS = 801


def subprocess_env() -> dict[str, str]:
    """Environment for a `python -m bessprofit` child process.

    Puts the directory holding the imported package at the front of
    PYTHONPATH as an absolute path, so the child runs the same copy as
    the test process whatever its working directory, and keeps any
    entries already there.
    """
    env = os.environ.copy()
    src = str(Path(bessprofit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def step_times(scenario: ScenarioSeries) -> list[datetime]:
    """The datetime of each step: start_time + i * timedelta(hours=h)."""
    step = timedelta(hours=scenario.h)
    return [scenario.start_time + i * step for i in range(scenario.n)]


def scenario_from_fixture(name: str) -> ScenarioSeries:
    """Synthetic month as the CLI would load it: W -> kWh, tariff prices."""
    start, load_w, pv_w = fixture_arrays(name)
    load = load_w * H / 1000.0
    pv = pv_w * H / 1000.0
    price = DEFAULT_TOU_TARIFF.prices(start, timedelta(hours=H), len(load))
    return ScenarioSeries(
        start_time=start, h=H, load=load, pv=pv, price=price, name=name
    )


def mini_scenario(z, price, h: float = 1.0, name: str = "mini") -> ScenarioSeries:
    """Tiny scenario from a signed net-load vector (positive = import)."""
    z = np.asarray(z, dtype=float)
    return ScenarioSeries(
        start_time=datetime(2019, 6, 1),
        h=h,
        load=np.maximum(z, 0.0),
        pv=np.maximum(-z, 0.0),
        price=np.asarray(price, dtype=float),
        name=name,
    )


def noisy_price_slice(days: int = 10, seed: int = 7) -> ScenarioSeries:
    """First `days` of the c1 fixture with a seeded AR(1) price series.

    The flat-ish shipped tariff offers no arbitrage margin, so the tuning
    tests need a price series with genuine spread; the AR(1) noise keeps
    cheap and dear hours clustered the way real markets do.
    """
    start, load_w, pv_w = fixture_arrays("c1")
    n = days * 288
    load = load_w[:n] * H / 1000.0
    pv = pv_w[:n] * H / 1000.0
    rng = np.random.default_rng(seed)
    rho = 0.97
    gain = np.sqrt(1.0 - rho * rho)
    acc = 0.0
    noise = np.empty(n)
    for i in range(n):
        acc = rho * acc + gain * rng.standard_normal()
        noise[i] = acc
    price = np.clip(0.25 + 0.12 * noise, 0.02, None)
    return ScenarioSeries(
        start_time=start, h=H, load=load, pv=pv, price=price, name="c1noisy"
    )


def reference_smooth_noise(rng: np.random.Generator, n: int, rho: float = 0.96) -> np.ndarray:
    """The fixtures' AR(1) noise stepped on NumPy scalars into a preallocated array."""
    shocks = rng.standard_normal(n)
    out = np.empty(n)
    acc = 0.0
    gain = np.sqrt(1.0 - rho * rho)
    for i in range(n):
        acc = rho * acc + gain * shocks[i]
        out[i] = acc
    return out


def reference_fixture_texts(seed: int) -> dict[str, str]:
    """Each fixture file's text from a per-row writer: a running datetime's
    isoformat() and f-strings over np.float64, with the noise drawn by
    ``reference_smooth_noise``."""
    texts = {}
    for name in FIXTURE_NAMES:
        with mock.patch.object(fixtures, "_smooth_noise", reference_smooth_noise):
            start, load_w, pv_w = fixture_arrays(name, seed)
        digest = hashlib.sha256(f"fixture:{name}:{seed}".encode()).hexdigest()[:12]
        lines = [f"# fixture: {name} seed={seed}", f"# config_hash: {digest}", "timestamp,load_w,pv_w"]
        t = start
        for lw, pw in zip(load_w, pv_w):
            lines.append(f"{t.isoformat()},{lw:.1f},{pw:.1f}")
            t += timedelta(minutes=5)
        texts[name] = "\n".join(lines) + "\n"
    return texts


def random_dispatch_instance(rng: np.random.Generator) -> DispatchProblem:
    """Small random dispatch problem whose SoC box lands on the DP grid."""
    n = int(rng.integers(2, 25))
    h = float(rng.choice([1.0 / 12.0, 0.25, 0.5]))
    b_rated = float(rng.choice([0.5, 1.0, 2.0]))
    rate = float(rng.choice([0.25, 1.0, 2.0]))
    spec = make_spec(f"r{n}", b_rated, rate, rate)
    z = rng.uniform(-0.4, 0.6, n) * b_rated
    load = np.maximum(z, 0.0)
    pv = np.maximum(-z, 0.0)
    price = rng.uniform(0.0, 0.5, n)
    eta_fric = float(rng.choice([1.0, 1.0, 0.8, 0.5]))
    if rng.random() < 0.3:
        s_lo = spec.delta_min_kw * h * spec.eta_dis
        cap = float(np.max(z + s_lo) / h) + float(rng.uniform(0.05, 0.6))
        p_max = max(cap, 0.0)
    else:
        p_max = np.inf
    scenario = ScenarioSeries(
        start_time=datetime(2019, 6, 1),
        h=h,
        load=load,
        pv=pv,
        price=price,
        name=f"rand{n}",
    )
    return DispatchProblem(scenario, spec, p_max_set=p_max, eta_fric=eta_fric)


def tariff_priced(prob: DispatchProblem, rng: np.random.Generator) -> DispatchProblem:
    """``prob`` repriced by a random two-period daily tariff, as the CLI
    prices every scenario, so that its step costs have at most six
    distinct slopes."""
    scenario = prob.scenario
    start, end = np.sort(rng.choice(round(scenario.total_hours * 60), 2, replace=False))
    tariff = TariffSchedule(
        periods=(TariffPeriod(int(start), int(end), float(rng.uniform(0.05, 0.5))),),
        fallback_price=float(rng.uniform(0.05, 0.5)),
    )
    price = tariff.prices(scenario.start_time, timedelta(hours=scenario.h), scenario.n)
    return replace(prob, scenario=replace(scenario, price=price))


def reference_list_forward(prob: DispatchProblem, lo_x, hi_x, start, length, slope):
    """A list DP that merges every piece of a step into V_i before the
    step's clip: the reference the solver's _list_forward, which holds
    pieces aside, is held to bit for bit."""
    spec, n = prob.spec, prob.scenario.n
    b_min, b_max, x_floor = spec.b_min, spec.b_max, lo_x - _DUST
    lo = spec.b_0
    slopes: list[float] = []
    lens: list[float] = []
    q: tuple[list[float], ...] = ([], [], [])
    rows = zip(hi_x.tolist(), *start.tolist(), *length.tolist(), *slope.tolist())
    for i, (ui, p0, p1, p2, l0, l1, l2, s0, s1, s2) in enumerate(rows):
        if ui < x_floor:
            raise _unreachable(prob, i)
        # pieces highest slope first, so a piece inserted into V never
        # shifts the crossing point of a lower-sloped piece of the same
        # step; every slope in V is >= -eps, so the bottom piece lands at
        # the front
        for p, len_j, s, q_j in ((p0, l0, s0, q[0]), (p1, l1, s1, q[1]), (p2, l2, s2, q[2])):
            if not len_j:
                q_j.append(0.0)  # an absent piece moves nothing
                continue
            k = bisect_left(slopes, s)
            # k = 0 needs no sum; the bottom piece of most steps lands there
            q_j.append(lo + (sum(lens[:k]) if k else 0) + p)
            if k < len(slopes) and slopes[k] == s:
                lens[k] += len_j
            else:
                slopes.insert(k, s)
                lens.insert(k, len_j)

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
    return lo + sum(lens[: bisect_left(slopes, 0.0)]), q


def reference_scan_forward(prob: DispatchProblem, lo_x, hi_x, start, length, slope):
    """The slope-domain scan as it was first vectorised, block-major with
    strided per-step views: the reference the solver's step-major
    _scan_forward is held to bit for bit. G_i(σ) for σ in {−∞, every
    slope, 0, +∞}, each column a clip-map recursion. Returns the final SoC
    and the q_j of each piece, as in _pieces."""
    spec, n, b_max = prob.spec, prob.scenario.n, prob.spec.b_max
    cols = _distinct(np.concatenate((slope.ravel(), (-np.inf, 0.0, np.inf))))
    f = lo_x + sum(len_j[:, None] * (slope_j[:, None] < cols) for len_j, slope_j in zip(length, slope))
    floor = np.full(n, spec.b_min)
    floor[-1] = spec.b_0 if prob.terminal_soc else spec.b_min

    # The map y ↦ clip(y + a, lo, hi) followed by (a2, l2, u2) is
    # (a + a2, clip(lo + a2, l2, u2), clip(hi + a2, l2, u2)). Compose the
    # prefix maps within blocks of about √(n/2) steps, carry the SoC across
    # the blocks in turn, then apply every prefix map to its block's entry.
    size = max(1, math.isqrt(n // 2))
    m = -(-n // size) * size  # the padded tail steps are discarded
    a = np.concatenate((f, np.zeros((m - n, cols.size)))).reshape(-1, size, 1, cols.size)
    l_step = np.resize(floor, m).reshape(-1, size, 1, 1)
    bounds = np.empty((a.shape[0], size, 2, cols.size))  # lo and hi of each prefix map
    bounds[:, 0, 0], bounds[:, 0, 1] = l_step[:, 0, 0], b_max
    for k in range(1, size):
        np.minimum(np.maximum(bounds[:, k - 1] + a[:, k], l_step[:, k]), b_max, out=bounds[:, k])
        a[:, k] += a[:, k - 1]
    entry = np.empty((a.shape[0], 1, 1, cols.size))
    y = np.full(cols.size, spec.b_0)
    for blk, (a_blk, (lo, hi)) in enumerate(zip(a[:, -1, 0], bounds[:, -1])):
        entry[blk] = y
        y = np.minimum(np.maximum(y + a_blk, lo), hi)
    g = np.minimum(np.maximum(entry + a, bounds[:, :, :1]), bounds[:, :, 1:]).reshape(m, -1)
    g_prev = np.vstack((np.full(cols.size, spec.b_0), g[: n - 1]))

    # the first step with no move, or whose pre-clip domain misses the box
    bad = ((hi_x < lo_x - _DUST) | (g_prev[:, -1] + f[:, -1] < floor - _DUST)
           | (g_prev[:, 0] + f[:, 0] > b_max + _DUST))
    if bad.any():
        raise _unreachable(prob, int(bad.argmax()))
    q = g_prev[np.arange(n), np.searchsorted(cols, slope)] + start
    return g[n - 1, np.searchsorted(cols, 0.0)], q.tolist()


def dp_gap_bound(prob: DispatchProblem, grid: float = DP_GRID) -> float:
    """Discretization error scale: grid step times the charge-side price mass.

    Rounding every stored-energy decision to the SoC grid perturbs each
    step's billed energy by at most grid/(eta_ch*eta_fric), so the cost gap
    between the continuous optimum and the grid optimum is bounded by a
    small multiple of this quantity.
    """
    a_ch = 1.0 / (prob.spec.eta_ch * prob.eta_fric)
    return grid * float(np.sum(prob.scenario.price)) * a_ch


@dataclass(frozen=True)
class DpDispatch:
    """Exact grid-restricted optimum from the dynamic-programming oracle."""

    cost: float
    x: np.ndarray
    b: np.ndarray  # end-of-step SoC, length n


def dp_oracle(prob: DispatchProblem, soc_grid_step: float) -> DpDispatch:
    """Exact optimum of the SoC-grid-restricted dispatch.

    Backward induction over a uniform SoC grid anchored at b_min. Stage
    cost mirrors the billing objective (price·max(0, z + s_fric))
    without the tie-break term, whatever prob.epsilon; the peak cap uses
    the true grid-side energy. With prob.terminal_soc the final SoC may
    not end below b_0.
    Refuses instances longer than DP_MAX_STEPS or grids finer than
    DP_MAX_GRID_POINTS points, and requires b_0 and b_max on the grid.
    """
    scenario, spec = prob.scenario, prob.spec
    n, h = scenario.n, scenario.h
    if n > DP_MAX_STEPS:
        raise ValueError(f"dp_oracle refuses n={n} > {DP_MAX_STEPS} steps")
    if soc_grid_step <= 0:
        raise ValueError("soc_grid_step must be > 0")
    n_points = int(round((spec.b_max - spec.b_min) / soc_grid_step)) + 1
    if n_points > DP_MAX_GRID_POINTS:
        raise ValueError(f"dp_oracle refuses grid of {n_points} points > {DP_MAX_GRID_POINTS}")
    if abs(spec.b_min + (n_points - 1) * soc_grid_step - spec.b_max) > 1e-9:
        raise ValueError("b_max - b_min must be an integer number of grid steps")
    grid = spec.b_min + soc_grid_step * np.arange(n_points)
    start = int(round((spec.b_0 - spec.b_min) / soc_grid_step))
    if not (0 <= start < n_points) or abs(grid[start] - spec.b_0) > 1e-9:
        raise ValueError("b_0 must lie on the SoC grid")

    z, price = scenario.z, scenario.price

    # action matrix: x[a, a'] = grid[a'] - grid[a]
    x_mat = grid[None, :] - grid[:, None]
    xp = np.maximum(0.0, x_mat)
    xm = np.maximum(0.0, -x_mat)
    feasible = (xp <= spec.delta_max_kw * h + 1e-12) & (xm <= -spec.delta_min_kw * h + 1e-12)
    s_true = xp / spec.eta_ch - spec.eta_dis * xm
    s_fric = xp / (spec.eta_ch * prob.eta_fric) - spec.eta_dis * prob.eta_fric * xm

    value = np.zeros(n_points)
    if prob.terminal_soc:
        value[:start] = np.inf
    choice = np.empty((n, n_points), dtype=np.int32)
    for i in range(n - 1, -1, -1):
        stage = price[i] * np.maximum(0.0, z[i] + s_fric)
        allowed = feasible.copy()
        if np.isfinite(prob.p_max_set):
            allowed &= z[i] + s_true <= prob.p_max_set * h + 1e-12
        total = np.where(allowed, stage + value[None, :], np.inf)
        choice[i] = np.argmin(total, axis=1)
        value = total[np.arange(n_points), choice[i]]

    if not np.isfinite(value[start]):
        raise InfeasibleDispatchError("dp_oracle: no feasible SoC path")

    x = np.empty(n)
    b = np.empty(n)
    state = start
    for i in range(n):
        nxt = int(choice[i][state])
        x[i] = grid[nxt] - grid[state]
        b[i] = grid[nxt]
        state = nxt
    return DpDispatch(cost=float(value[start]), x=x, b=b)


def billed_cost(prob: DispatchProblem, dispatch: DispatchSolution) -> float:
    """Σ price·max(0, z + x⁺/(eta_ch·eta_fric) − eta_dis·eta_fric·x⁻) in €,
    recomputed from the dispatch's arrays: the solver's objective without epsilon."""
    spec = prob.spec
    a_ch = 1.0 / (spec.eta_ch * prob.eta_fric)
    a_dis = spec.eta_dis * prob.eta_fric
    net = prob.scenario.z + a_ch * dispatch.x_plus - a_dis * dispatch.x_minus
    return float(np.sum(prob.scenario.price * np.maximum(0.0, net)))


def dispatch_objective(prob: DispatchProblem, dispatch: DispatchSolution) -> float:
    """The solver's objective: frictioned bill plus epsilon times the movement."""
    return billed_cost(prob, dispatch) + prob.epsilon * float(np.sum(dispatch.x_plus + dispatch.x_minus))


def linear_cycles(soc: np.ndarray, b_rated: float) -> float:
    """Equivalent full cycles at damage exponent 1 (half the throughput)."""
    return count_cycles(soc, b_rated, 1.0)

