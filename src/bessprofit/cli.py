"""Command-line front end.

Subcommands: ``evaluate`` one battery on one scenario, ``sweep`` a whole
catalog over one or more scenarios, ``tune`` the friction coefficient of
one battery, ``fixtures`` to (re)generate the bundled synthetic cases.

Exit codes: 0 success, 1 usage/config/parse problems, 2 when a dispatch
cannot be solved (the peak target is unreachable). Output files are
byte-identical across reruns with the same inputs; each embeds a config
hash plus the conventions in force. The output directory is made when the
first file is written, so a run that fails before that leaves none.

``main`` builds its argument parser once per process and reuses it on
every later call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import pickle
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .battery import BatterySpec, catalog_by_name, default_catalog, load_catalog
from .errors import ConfigError, InfeasibleDispatchError, ScenarioError
from .fixtures import DEFAULT_SEED, gen_fixtures
from .optimizer import DEFAULT_EPSILON, DispatchSolution
from .profitability import Conventions, ProfitabilityReport, _echo, evaluate_candidate, tune_friction
from .report import ReportHeader, fmt_payback, render_table, write_report
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
    """Resolved inputs for one run; ``hashed`` holds the tariff, PPC and catalog
    bytes as read (``<default>`` when not given) and the conventions."""

    hashed: bytes
    conventions: Conventions
    out_dir: Path
    tariff: TariffSchedule
    ppc: PpcSchedule
    catalog: tuple[BatterySpec, ...]


def _require_file(kind: str, path: str) -> None:
    """Refuse a path that is missing or not a regular file, without opening it:
    the config hash reads every input a second time, when a pipe is drained,
    and a FIFO with no writer would block the run."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        raise ConfigError(f"{kind} file not found: {path}") from None
    if not stat.S_ISREG(mode):
        raise ConfigError(f"{kind} file {path} is not a regular file")


def _build_config(args, scenario_paths: list[str]) -> SweepConfig:
    step = args.step_minutes
    if step is not None and not (math.isfinite(step) and step > 0):
        raise _UsageError(f"--step-minutes must be > 0 and finite, got {step:g}")
    # every input path is checked before any input is read
    for path in scenario_paths:
        _require_file("scenario", path)
    for kind, path in (("tariff", args.tariff), ("PPC", args.ppc), ("catalog", args.catalog)):
        if path:
            _require_file(kind, path)
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
    hashed = [Path(path).read_bytes() if path else b"<default>" for path in (args.tariff, args.ppc, args.catalog)]
    hashed += [line.encode() for line in conventions.lines()]
    return SweepConfig(b"".join(hashed), conventions, Path(args.out), tariff, ppc, catalog)


def _config_hash(config: SweepConfig, scenario_hash: hashlib._Hash, *extra: str) -> str:
    """Hash of the inputs behind one scenario's files: ``scenario_hash`` (see
    ``_load``) fed ``config.hashed`` and ``extra``."""
    digest = scenario_hash.copy()
    digest.update(b"".join([config.hashed, *map(str.encode, extra)]))
    return digest.hexdigest()[:12]


def _load(config: SweepConfig, path: str) -> tuple[ScenarioSeries, hashlib._Hash]:
    """The scenario, and a SHA-256 fed the version line and the file's bytes,
    read right after it is parsed and before any solve."""
    h = None if config.conventions.step_minutes is None else config.conventions.step_minutes / 60.0
    try:
        scenario = load_scenario(path, h=h, tariff=config.tariff)
        scenario.baseline  # a file with no defined baseline fails here, named, before any solve
    except ValueError as exc:
        raise ScenarioError(f"scenario file {path}: {exc}") from exc
    digest = hashlib.sha256(f"bessprofit {__version__}".encode())
    digest.update(Path(path).read_bytes())
    return scenario, digest


def _battery(config: SweepConfig, name: str) -> BatterySpec:
    by_name = catalog_by_name(config.catalog)
    if name not in by_name:
        known = ", ".join(spec.name for spec in config.catalog)
        raise ConfigError(f"unknown battery {name!r}; catalog has: {known}")
    # evaluate and tune name their output files after the battery
    if "/" in name or "\0" in name:
        raise ConfigError(f"battery name {name!r} cannot be part of a file name: it holds '/' or NUL")
    return by_name[name]


def _write_tables(config: SweepConfig, scenario_hash: hashlib._Hash, scenario: ScenarioSeries,
                  reports: list[ProfitabilityReport], stem: str, *hash_extra: str,
                  tail: str = "") -> tuple[ReportHeader, str]:
    """Write the report table of ``reports`` to ``{stem}.csv`` and, with ``tail``
    after it, to ``{stem}.txt``; return the header and the text."""
    header = ReportHeader(scenario.name, _config_hash(config, scenario_hash, *hash_extra), config.conventions.lines())
    text = render_table(header, scenario.baseline, reports) + tail
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_report(config.out_dir / f"{stem}.csv", header, scenario.baseline, reports)
    (config.out_dir / f"{stem}.txt").write_text(text, newline="")
    return header, text


def _write_candidate(config: SweepConfig, scenario: ScenarioSeries, report: ProfitabilityReport,
                     dispatch: DispatchSolution, scenario_hash: hashlib._Hash, infix: str, *hash_extra: str) -> str:
    """Write ``{scenario}-{battery}-{infix}`` + ``report.txt``, ``report.csv`` and
    ``dispatch.csv``; return the table."""
    stem = f"{scenario.name}-{report.battery.name}-{infix}"
    header, text = _write_tables(config, scenario_hash, scenario, [report], f"{stem}report", *hash_extra)
    lines = header.lines()
    lines.append("timestamp,z_kwh,x_kwh,s_kwh,b_kwh,theta_kwh,price")
    # Python floats format exactly as np.float64 does; b is the SoC after each step
    columns = (scenario.z, dispatch.x, dispatch.s, dispatch.b, dispatch.theta, scenario.price)
    lines += map("%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.4f".__mod__,
                 zip(scenario.step_stamps(), *(c.tolist() for c in columns)))
    (config.out_dir / f"{stem}dispatch.csv").write_text("\n".join(lines) + "\n", newline="")
    return text


def cmd_evaluate(args) -> int:
    config = _build_config(args, [args.scenario])
    scenario, scenario_hash = _load(config, args.scenario)
    spec = _battery(config, args.battery)
    report, selection = evaluate_candidate(scenario, spec, config.ppc, config.conventions)
    print(_write_candidate(config, scenario, report, selection.dispatch, scenario_hash, "",
                           "evaluate", spec.name), end="")
    return 0


def _sweep_one(task) -> tuple[ProfitabilityReport | None, tuple[str, str] | None]:
    """One (scenario, battery) pair: the report, or the battery name and reason it is infeasible."""
    config, scenario, spec = task
    try:
        return evaluate_candidate(scenario, spec, config.ppc, config.conventions)[0], None
    except InfeasibleDispatchError as exc:
        return None, (spec.name, str(exc))


def _forked_map(fn, tasks: list, workers: int) -> list:
    """``list(map(fn, tasks))`` on ``workers`` forked processes. Worker w maps tasks w,
    w + workers, ... and writes one pickle, of its results or its exception, to its own pipe.
    This process reads the pipes in worker order and reaps every worker on every path."""
    children = []  # (pid, read end of its pipe), one per worker
    results: list = [None] * len(tasks)
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            # Fork, not spawn: a spawned worker re-imports numpy and
            # bessprofit, about the cost of a 3-day sweep, and would not
            # inherit the tasks. The CLI runs no other thread when it forks.
            pid = os.fork()
            if pid == 0:  # the worker; it never returns
                try:
                    os.close(read_fd)  # read ends stay open in the parent alone, see finally
                    for _, pipe in children:
                        pipe.close()
                    try:
                        reply = pickle.dumps([fn(task) for task in tasks[w::workers]])
                    except Exception as exc:
                        reply = pickle.dumps(exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(reply)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for w, (_, pipe) in enumerate(children):
            reply = pipe.read()
            if not reply:  # the worker died before it wrote
                break
            reply = pickle.loads(reply)
            if isinstance(reply, BaseException):
                raise reply
            results[w::workers] = reply
        else:
            return results
    finally:
        # unread pipes close first, so a worker blocked writing to one gets EPIPE and exits
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    raise ChildProcessError(f"sweep worker {w} exited with status "
                            f"{os.waitstatus_to_exitcode(statuses[w])}")


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
    config = _build_config(args, args.scenarios)
    # every scenario is read and validated before the first solve
    scenarios, scenario_hashes = zip(*(_load(config, path) for path in args.scenarios))
    tasks = [(config, scenario, spec) for scenario in scenarios for spec in config.catalog]
    workers = min(args.jobs, len(tasks))
    outcomes = (list(map(_sweep_one, tasks)) if workers == 1
                else _forked_map(_sweep_one, tasks, workers))
    n = len(config.catalog)
    for k, (scenario_hash, scenario) in enumerate(zip(scenario_hashes, scenarios)):
        mine = outcomes[k * n:(k + 1) * n]
        # only the text lists the failures; the CSV has the candidates that solved
        failures = sorted(failure for _, failure in mine if failure is not None)
        tail = "".join(f"# failed: {name}: {msg}\n" for name, msg in failures)
        _, text = _write_tables(config, scenario_hash, scenario, [report for report, _ in mine if report is not None],
                                f"{scenario.name}-sweep", "sweep", tail=tail)
        print(text, end="")
    return 0


def cmd_tune(args) -> int:
    if args.target is not None and not (math.isfinite(args.target) and args.target > 0):
        raise _UsageError(f"--target must be > 0 and finite, got {args.target:g}")
    config = _build_config(args, [args.scenario])
    scenario, scenario_hash = _load(config, args.scenario)
    spec = _battery(config, args.battery)
    result = tune_friction(scenario, spec, config.ppc, config.conventions, target_cycles=args.target)
    _write_candidate(config, scenario, result.report, result.dispatch, scenario_hash, "tuned-",
                     "tune", spec.name, _echo(result.target_cycles))

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
        ("expb_before", fmt_payback(result.untuned_report.expb_years)),
        ("expb_after", fmt_payback(result.report.expb_years)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return 0


def cmd_fixtures(args) -> int:
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    paths = gen_fixtures(seed=args.seed, out_dir=args.out)
    for path in paths:
        print(path)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, jobs: bool = False, eta: bool = False) -> None:
    sub.add_argument("--tariff", help="tariff schedule JSON (default: built-in two-period ToU)")
    sub.add_argument("--ppc", help="peak-power-contract level table JSON (default: built-in)")
    sub.add_argument("--catalog", help="battery catalog JSON (default: built-in 3x3 grid)")
    sub.add_argument("--step-minutes", type=float, default=None,
                     help="expected sample spacing in minutes, > 0 and finite; must match the file")
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
                         help="forked workers; worker k of N takes (scenario x battery) pairs k, k+N, "
                              "...; the parent only waits, then writes in catalog order (default 1: "
                              "in-process)")


@functools.cache
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
        with np.errstate(over="ignore"):  # an overflow fails by name (check_finite), not as a NumPy warning
            return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleDispatchError as exc:
        print(f"error: dispatch infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
