"""Command-line front end.

Subcommands: ``evaluate`` one battery on one scenario, ``sweep`` a whole
catalog over one or more scenarios, ``tune`` the friction coefficient of
one battery, ``fixtures`` to (re)generate the bundled synthetic cases.

Exit codes: 0 success, 1 usage/config/parse problems, 2 when a dispatch
cannot be solved (the peak target is unreachable). Output files are
byte-identical across reruns with the same inputs; each embeds a config
hash plus the conventions in force.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .battery import BatterySpec, catalog_by_name, default_catalog, load_catalog
from .errors import ConfigError, InfeasibleDispatchError
from .fixtures import DEFAULT_SEED, gen_fixtures
from .optimizer import DEFAULT_EPSILON, DispatchSolution
from .profitability import Conventions, ProfitabilityReport, evaluate_candidate, tune_friction
from .report import ReportHeader, render_table, write_report
from .timeseries import (
    DEFAULT_PPC_SCHEDULE,
    DEFAULT_TOU_TARIFF,
    PpcSchedule,
    ScenarioSeries,
    TariffSchedule,
    baseline_metrics,  # unused here; perfbench's tracer wraps it in this module
    load_ppc,
    load_scenario,
    load_tariff,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """Resolved inputs for one run."""

    tariff_path: str | None
    ppc_path: str | None
    catalog_path: str | None
    conventions: Conventions
    out_dir: Path

    tariff: TariffSchedule = field(default=DEFAULT_TOU_TARIFF, compare=False)
    ppc: PpcSchedule = field(default=DEFAULT_PPC_SCHEDULE, compare=False)
    catalog: tuple[BatterySpec, ...] = field(default=(), compare=False)


def _build_config(args) -> SweepConfig:
    conventions = Conventions(
        step_minutes=args.step_minutes,
        months_12=args.months_12,
        damage_exp=args.damage_exp,
        epsilon=args.epsilon,
        eta_fric=getattr(args, "eta_fric", 1.0),
        contracted_kva=args.contracted_kva,
        terminal_soc=args.terminal_soc,
    )
    tariff = load_tariff(args.tariff) if args.tariff else DEFAULT_TOU_TARIFF
    ppc = load_ppc(args.ppc) if args.ppc else DEFAULT_PPC_SCHEDULE
    catalog = tuple(load_catalog(args.catalog) if args.catalog else default_catalog())
    if not catalog:
        raise ConfigError("battery catalog is empty")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return SweepConfig(
        tariff_path=args.tariff,
        ppc_path=args.ppc,
        catalog_path=args.catalog,
        conventions=conventions,
        out_dir=out_dir,
        tariff=tariff,
        ppc=ppc,
        catalog=catalog,
    )


def _config_hash(config: SweepConfig, path: str, *extra: str) -> str:
    """Hash of the inputs behind one scenario's files: the scenario's bytes,
    the tariff, PPC and catalog bytes, the conventions and ``extra``."""
    digest = hashlib.sha256()
    digest.update(f"bessprofit {__version__}".encode())
    digest.update(Path(path).read_bytes())
    for blob in (config.tariff_path, config.ppc_path, config.catalog_path):
        if blob:
            digest.update(Path(blob).read_bytes())
        else:
            digest.update(b"<default>")
    for line in config.conventions.lines():
        digest.update(line.encode())
    for item in extra:
        digest.update(item.encode())
    return digest.hexdigest()[:12]


def _load(config: SweepConfig, path: str) -> ScenarioSeries:
    if not Path(path).exists():
        raise ConfigError(f"scenario file not found: {path}")
    h = None if config.conventions.step_minutes is None else config.conventions.step_minutes / 60.0
    return load_scenario(path, h=h, tariff=config.tariff)


def _battery(config: SweepConfig, name: str) -> BatterySpec:
    by_name = catalog_by_name(config.catalog)
    if name not in by_name:
        known = ", ".join(spec.name for spec in config.catalog)
        raise ConfigError(f"unknown battery {name!r}; catalog has: {known}")
    return by_name[name]


def _write_candidate(
    config: SweepConfig,
    scenario: ScenarioSeries,
    report: ProfitabilityReport,
    dispatch: DispatchSolution,
    path: str,
    infix: str,
    *hash_extra: str,
) -> str:
    """Write ``{scenario}-{battery}-{infix}`` + ``dispatch.csv``, ``report.txt`` and
    ``report.csv``; return the table."""
    spec = report.battery
    header = ReportHeader(
        scenario=scenario.name,
        config_hash=_config_hash(config, path, *hash_extra),
        conventions=config.conventions.lines(),
    )
    base = scenario.baseline
    text = render_table(header, base, [report])
    lines = header.lines()
    lines.append("timestamp,z_kwh,x_kwh,s_kwh,b_kwh,theta_kwh,price")
    # Python floats format exactly as np.float64 does; b is the SoC after each step
    columns = (scenario.z, dispatch.x, dispatch.s, dispatch.b, dispatch.theta, scenario.price)
    lines += [
        f"{stamp.isoformat()},{z:.6f},{x:.6f},{s:.6f},{b:.6f},{theta:.6f},{price:.4f}"
        for stamp, z, x, s, b, theta, price in zip(scenario.step_times(), *(c.tolist() for c in columns))
    ]
    stem = f"{scenario.name}-{spec.name}-{infix}"
    (config.out_dir / f"{stem}dispatch.csv").write_text("\n".join(lines) + "\n", newline="")
    (config.out_dir / f"{stem}report.txt").write_text(text, newline="")
    write_report(config.out_dir / f"{stem}report.csv", header, base, [report])
    return text


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    scenario = _load(config, args.scenario)
    spec = _battery(config, args.battery)
    report, dispatch, _ = evaluate_candidate(scenario, spec, config.ppc, config.conventions)
    print(_write_candidate(config, scenario, report, dispatch, args.scenario, "",
                           "evaluate", spec.name), end="")
    return 0


# The sweep's tasks, set before the pool forks: a worker inherits them and gets an index.
_SWEEP_TASKS: list[tuple[SweepConfig, ScenarioSeries, BatterySpec]] = []


def _sweep_one(k: int) -> tuple[ProfitabilityReport | None, tuple[str, str] | None]:
    """Sweep task k: the report, or the battery name and reason it is infeasible."""
    config, scenario, spec = _SWEEP_TASKS[k]
    try:
        return evaluate_candidate(scenario, spec, config.ppc, config.conventions)[0], None
    except InfeasibleDispatchError as exc:
        return None, (spec.name, str(exc))


def _write_sweep(config: SweepConfig, path: str, scenario: ScenarioSeries, outcomes) -> str:
    base = scenario.baseline
    header = ReportHeader(
        scenario=scenario.name,
        config_hash=_config_hash(config, path, "sweep"),
        conventions=config.conventions.lines(),
    )
    ordered = [report for report, _ in outcomes if report is not None]
    failures = sorted(failure for _, failure in outcomes if failure is not None)
    text = render_table(header, base, ordered)
    text += "".join(f"# failed: {name}: {msg}\n" for name, msg in failures)
    write_report(config.out_dir / f"{scenario.name}-sweep.csv", header, base, ordered)
    (config.out_dir / f"{scenario.name}-sweep.txt").write_text(text, newline="")
    return text


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    # each scenario's outputs are named after its file stem
    by_stem: dict[str, str] = {}
    for path in args.scenarios:
        stem = Path(path).stem
        if stem in by_stem:
            raise ConfigError(f"scenarios {by_stem[stem]} and {path} would write the same "
                              f"{stem}-sweep files")
        by_stem[stem] = path
    config = _build_config(args)
    # every scenario is read and validated before the first solve
    scenarios = [_load(config, path) for path in args.scenarios]
    _SWEEP_TASKS[:] = [(config, scenario, spec) for scenario in scenarios for spec in config.catalog]
    indices = range(len(_SWEEP_TASKS))
    try:
        if args.jobs == 1:
            outcomes = list(map(_sweep_one, indices))
        else:
            import multiprocessing  # imported here: evaluate, tune and --jobs 1 need no pool

            # Fork by name: a spawn or forkserver (Python 3.14's default)
            # worker re-imports numpy and bessprofit, about the cost of a
            # 3-day sweep, and would not inherit the tasks. A fork pool
            # starts all its workers at once, hence the cap. The CLI runs no
            # other thread when the pool forks.
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(indices)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                outcomes = list(pool.map(_sweep_one, indices))
    finally:
        _SWEEP_TASKS.clear()
    n = len(config.catalog)
    for k, (path, scenario) in enumerate(zip(args.scenarios, scenarios)):
        print(_write_sweep(config, path, scenario, outcomes[k * n:(k + 1) * n]), end="")
    return 0


def cmd_tune(args) -> int:
    if args.target is not None and not (math.isfinite(args.target) and args.target > 0):
        raise _UsageError(f"--target must be > 0 and finite, got {args.target:g}")
    config = _build_config(args)
    scenario = _load(config, args.scenario)
    spec = _battery(config, args.battery)
    result = tune_friction(scenario, spec, config.ppc, config.conventions, target_cycles=args.target)
    _write_candidate(config, scenario, result.report, result.dispatch, args.scenario, "tuned-",
                     "tune", spec.name, f"{result.target_cycles:.6f}")

    if result.eta_fric == 1.0:
        print("eta_fric = 1 (no tuning needed)")
    rows = [
        ("battery", spec.name),
        ("target_cycles", f"{result.target_cycles:.2f}"),
        ("eta_fric", f"{result.eta_fric:.6f}"),
        ("cycles_before", f"{result.untuned_report.n_cyc_100:.2f}"),
        ("cycles_after", f"{result.report.n_cyc_100:.2f}"),
        ("p_cyc_before", f"{result.untuned_report.p_cyc:.4f}"),
        ("p_cyc_after", f"{result.report.p_cyc:.4f}"),
        ("expb_before", "inf" if result.untuned_report.expb_years == float("inf")
         else f"{result.untuned_report.expb_years:.2f}"),
        ("expb_after", "inf" if result.report.expb_years == float("inf")
         else f"{result.report.expb_years:.2f}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def cmd_fixtures(args) -> int:
    paths = gen_fixtures(seed=args.seed, out_dir=args.out)
    for path in paths:
        print(path)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, jobs: bool = False, eta: bool = False) -> None:
    sub.add_argument("--tariff", help="tariff schedule JSON (default: built-in two-period ToU)")
    sub.add_argument("--ppc", help="peak-power-contract level table JSON (default: built-in)")
    sub.add_argument("--catalog", help="battery catalog JSON (default: built-in 3x3 grid)")
    sub.add_argument("--step-minutes", type=float, default=None,
                     help="expected sample spacing; must match the file")
    sub.add_argument("--months-12", action="store_true",
                     help="payback = cost / (12 * monthly gain) instead of calendar-exact")
    sub.add_argument("--damage-exp", type=float, default=1.0,
                     help="cycle damage exponent kp (default 1)")
    sub.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     help="movement-suppression weight in the dispatch objective")
    sub.add_argument("--contracted-kva", type=float, default=None,
                     help="current contract level; default: smallest level covering the baseline peak")
    sub.add_argument("--terminal-soc", action="store_true",
                     help="require the final state of charge to end at or above the initial one")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    if eta:
        sub.add_argument("--eta-fric", type=float, default=1.0,
                         help="friction coefficient in (0, 1] (default 1: no friction)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes over the (scenario x battery) pairs; POSIX fork "
                              "(default 1: in-process)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bessprofit",
                     description="Battery dispatch and profitability for ToU prosumers")
    parser.add_argument("--version", action="version", version=f"bessprofit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("evaluate", help="score one battery on one scenario")
    p_eval.add_argument("scenario", help="scenario CSV (timestamp,load_w,pv_w)")
    p_eval.add_argument("--battery", required=True, help="catalog entry name")
    _add_common(p_eval, eta=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = subs.add_parser("sweep", help="score the whole catalog on scenarios")
    p_sweep.add_argument("scenarios", nargs="+", help="scenario CSV files")
    _add_common(p_sweep, jobs=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tune = subs.add_parser("tune", help="throttle an over-cycling battery via friction")
    p_tune.add_argument("scenario", help="scenario CSV")
    p_tune.add_argument("--battery", required=True, help="catalog entry name")
    p_tune.add_argument("--target", type=float, default=None,
                        help="cycle budget for the window (default: break-even count)")
    _add_common(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_fix = subs.add_parser("fixtures", help="write the four synthetic scenario files")
    p_fix.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_fix.add_argument("--out", default=".", help="output directory")
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleDispatchError as exc:
        print(f"error: dispatch infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
