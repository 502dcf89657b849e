"""End-to-end command-line behavior.

Covers the four subcommands, the documented exit-code contract (0 ok,
1 usage/config/parse, 2 unsolvable dispatch), convention echoing in the
output headers, and byte-for-byte reproducibility of generated files.

Every failure case is a row of one table, ``FAILURES``, run through
``cli.main`` in-process from a fresh directory, and each row checks the
whole contract: the exit code, empty stdout, the last stderr line, exactly
one ``error:`` line, no NumPy warning, no ``--out`` directory and no child
process left. A Hypothesis test runs ``cli.main`` on one day with edge
values in the catalog, tariff, contract levels, one step's load and PV
and the friction and holds each run to the same contract, or to finite
output numbers when it succeeds. The
sweep's fork-count and dying-worker checks also run in-process, so that
they can wrap ``os.fork`` and stand in for ``_sweep_one`` in the forked
workers. The success-path command tests run ``python -m bessprofit`` as a
subprocess. A fresh interpreter is also started where the process itself
is under test: ``--version`` exits the process, the runtime path must load
no SciPy, a failed sweep must not hang its process, and one test runs a
series of commands, a config error and an exit-2 run among them, both
in-process and in fresh processes and compares their outcomes and files.
Beside the runtime check, a parse of every module of the package finds no
SciPy import.
"""

from __future__ import annotations

import ast
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _support import reference_fixture_texts, reference_smooth_noise, step_times, subprocess_env
from bessprofit import cli, fixtures
from bessprofit.battery import catalog_by_name, default_catalog
from bessprofit.profitability import Conventions, evaluate_candidate, tune_friction
from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, load_scenario, load_tariff


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "bessprofit", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )


def spread_tariff(tmp_path):
    """Write a wide day/night tariff; the shipped one has too small a spread
    to make any candidate over-cycle."""
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({
        "periods": [{"start": "08:00", "end": "22:00", "price": 0.30}],
        "fallback_price": 0.08,
    }))
    return path


def data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_version_flag(tmp_path):
    proc = run_cli("--version", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "bessprofit 0.1.0"


def test_runtime_path_loads_no_scipy(tmp_path, fixture_dir):
    # SciPy is a test-only dependency: only the LP reference in
    # tests/_reference.py needs it, so evaluate, tune and a forked sweep all
    # run with every SciPy import failing; none of them loads multiprocessing
    # or concurrent.futures either. The placeholder LP module and the
    # benchmark's tracer, which binds it, import without SciPy too.
    # Nor does a run load numpy.ma, which np.unique imports on first use.
    c1 = str(fixture_dir / "c1.csv")
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    argvs = [
        ["evaluate", c1, "--battery", "2kwh-1c", "--out", str(tmp_path / "evaluate")],
        ["tune", c1, "--battery", "2kwh-1c", "--out", str(tmp_path / "tune")],
        ["sweep", c1, "--jobs", "2", "--out", str(tmp_path / "sweep")],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import bessprofit, bessprofit.cli, bessprofit.lp\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import tracing\n"
        f"rcs = [bessprofit.cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([rcs, sys.modules['scipy'], sorted(m for m in sys.modules"
        " if m.startswith(('scipy.', 'numpy.ma.', 'multiprocessing', 'concurrent')))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], None, []]
    assert (tmp_path / "sweep" / "c1-sweep.csv").is_file()


def scipy_imports(paths) -> list[str]:
    """``file:line: module`` of every SciPy import in the Python files ``paths``."""
    found = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    return found


def test_package_imports_no_scipy():
    # the test above sees what a run loads; this one reads every module of the
    # package, so no SciPy import can hide in a function that no run calls
    assert scipy_imports(Path(cli.__file__).parent.rglob("*.py")) == []


def test_only_the_lp_reference_imports_scipy_among_the_tests():
    # the rest of the suite runs without SciPy, as README says
    found = scipy_imports(Path(__file__).parent.glob("*.py"))
    assert {entry.split(":")[0] for entry in found} == {"_reference.py"}, found


def test_in_process_runs_match_fresh_processes(tmp_path, fixture_dir, capsys):
    # main reuses one parser for every call in a process: no flag value may
    # carry over from one call to the next, and a usage error leaves it usable.
    # The config error and the exit-2 run tie the in-process failure table to
    # real processes.
    lines = (fixture_dir / "c1.csv").read_text().splitlines(keepends=True)
    scenario = tmp_path / "c1.csv"
    scenario.write_text("".join(lines[: 3 + 3 * 288]))
    tariff = tmp_path / "bad.json"
    tariff.write_text(json.dumps({"fallback_price": "0.185"}))

    def argvs(root):
        return [
            ["evaluate", str(scenario), "--battery", "2kwh-1c", "--eta-fric", "0.8",
             "--out", str(root / "friction")],
            ["evaluate", str(scenario), "--battery"],
            ["sweep", str(scenario), "--jobs", "2", "--out", str(root / "sweep")],
            ["sweep", str(scenario), "--tariff", str(tariff), "--out", str(root / "config")],
            ["tune", str(scenario), "--battery", "2kwh-1c", "--out", str(root / "tune")],
            ["evaluate", str(fixture_dir / "c3.csv"), "--battery", "1kwh-0.25c", "--contracted-kva", "3.45",
             "--out", str(root / "infeasible")],
            ["evaluate", str(scenario), "--battery", "2kwh-1c", "--out", str(root / "plain")],
        ]

    runs = {}
    for where in ("in-process", "fresh"):
        root = tmp_path / where
        outcomes = []
        for argv in argvs(root):
            if where == "in-process":
                code = cli.main(argv)
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
            else:
                proc = run_cli(*argv, cwd=tmp_path)
                outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        files = {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        runs[where] = outcomes, files
    (outcomes, files), (fresh_outcomes, fresh_files) = runs["in-process"], runs["fresh"]
    assert files == fresh_files
    assert len(files) == 3 + 2 + 3 + 3
    for where in runs:  # the failed runs left no --out directory
        assert sorted(os.listdir(tmp_path / where)) == ["friction", "plain", "sweep", "tune"]
    errors = [(code, [ln for ln in err.splitlines() if ln.startswith("error:")])
              for code, _, err in outcomes[1::2]]
    assert errors == [
        (1, ["error: argument --battery: expected one argument"]),
        (1, [f"error: tariff file {tariff}: bad fallback_price '0.185'"]),
        (2, ["error: dispatch infeasible: peak cap 3.45 kW unreachable at step 246"]),
    ]
    # a usage line above an error wraps at the terminal width, which differs in-process
    for k, ((code, out, err), (fresh_code, fresh_out, fresh_err)) in enumerate(zip(outcomes, fresh_outcomes)):
        assert (code, out) == (fresh_code, fresh_out), k
        assert err.splitlines()[-1:] == fresh_err.splitlines()[-1:], k
    assert b"# eta_fric: 0.8\n" in files["friction/c1-2kwh-1c-report.txt"]
    assert b"# eta_fric: 1\n" in files["plain/c1-2kwh-1c-report.txt"]


class TestFixturesCommand:
    def test_generation_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        first = run_cli("fixtures", "--out", a, cwd=tmp_path)
        second = run_cli("fixtures", "--out", b, cwd=tmp_path)
        assert first.returncode == 0 and second.returncode == 0
        names = [f"c{i}.csv" for i in (1, 2, 3, 4)]
        assert [p.name for p in sorted(a.iterdir())] == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        listed = first.stdout.splitlines()
        assert len(listed) == 4 and listed[0].endswith("c1.csv")

    def test_files_carry_provenance_headers(self, tmp_path):
        run_cli("fixtures", "--out", tmp_path / "f", cwd=tmp_path)
        head = (tmp_path / "f" / "c2.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# fixture: c2 seed=")
        assert head[1].startswith("# config_hash: ")
        assert head[2] == "timestamp,load_w,pv_w"

    def test_seed_changes_the_series(self, tmp_path):
        run_cli("fixtures", "--out", tmp_path / "s0", cwd=tmp_path)
        run_cli("fixtures", "--seed", "7", "--out", tmp_path / "s7", cwd=tmp_path)
        assert (tmp_path / "s0" / "c1.csv").read_bytes() != (
            tmp_path / "s7" / "c1.csv"
        ).read_bytes()

    @pytest.mark.parametrize("seed", [0, 7, 2019])
    def test_files_equal_the_per_row_writer(self, tmp_path, seed):
        proc = run_cli("fixtures", "--seed", seed, "--out", tmp_path / "f", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name, text in reference_fixture_texts(seed).items():
            assert (tmp_path / "f" / f"{name}.csv").read_bytes() == text.encode()

    @pytest.mark.parametrize("rho", [0.96, 0.5])
    def test_noise_equals_the_numpy_scalar_loop(self, rho):
        for seed in (0, 1, 7, 2019, 12345):
            got = fixtures._smooth_noise(np.random.default_rng(seed), 2000, rho)
            want = reference_smooth_noise(np.random.default_rng(seed), 2000, rho)
            assert np.array_equal(got, want)


class TestEvaluateCommand:
    def test_writes_three_artifacts(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        proc = run_cli(
            "evaluate", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
            "--step-minutes", "5", "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report_txt = (out / "c1-2kwh-1c-report.txt").read_text()
        report_csv = (out / "c1-2kwh-1c-report.csv").read_text()
        dispatch_csv = (out / "c1-2kwh-1c-dispatch.csv").read_text()

        # stdout repeats the text table; both carry the baseline row
        assert "Load + PV" in proc.stdout
        assert "Load + PV" in report_txt
        assert "# scenario: c1" in report_txt
        assert "# step_minutes: 5" in report_txt
        assert "# expb_convention: calendar" in report_txt

        rows = data_lines(report_csv)
        assert rows[0].startswith("case,g_pd_eur,g_t_eur,")
        for extra in ("g_arb_eur", "eta_fric", "level_kva"):
            assert extra in rows[0]
        assert rows[1].startswith("Load + PV,")
        assert rows[2].startswith("2kwh-1c,")

        steps = data_lines(dispatch_csv)
        assert steps[0] == "timestamp,z_kwh,x_kwh,s_kwh,b_kwh,theta_kwh,price"
        assert len(steps) == 1 + 8640

    def test_dispatch_csv_rows_are_the_dispatch(self, tmp_path, fixture_dir):
        # energies at 6 decimals, the price at 4, and b_kwh the SoC after the step
        out = tmp_path / "out"
        proc = run_cli("evaluate", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
                       "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        scenario = load_scenario(fixture_dir / "c1.csv")
        spec = catalog_by_name(default_catalog())["2kwh-1c"]
        dispatch = evaluate_candidate(scenario, spec, DEFAULT_PPC_SCHEDULE, Conventions())[1].dispatch
        z, x, s, b, theta = scenario.z, dispatch.x, dispatch.s, dispatch.b, dispatch.theta
        expected = [
            f"{stamp.isoformat()},{z[i]:.6f},{x[i]:.6f},{s[i]:.6f},{b[i]:.6f},"
            f"{theta[i]:.6f},{scenario.price[i]:.4f}"
            for i, stamp in enumerate(step_times(scenario))
        ]
        steps = data_lines((out / "c1-2kwh-1c-dispatch.csv").read_text())
        assert steps[1:] == expected

    def test_byte_order_mark_is_skipped(self, tmp_path, fixture_dir, capsys):
        # spreadsheet "CSV UTF-8" exports start with the UTF-8 byte-order mark;
        # a scenario and a tariff file that carry one read as the files without
        lines = (fixture_dir / "c1.csv").read_bytes().splitlines(keepends=True)
        plain = {"c1.csv": b"".join(lines[: 3 + 3 * 288]), "t.json": spread_tariff(tmp_path).read_bytes()}
        rows = {}
        for mark in (b"", b"\xef\xbb\xbf"):
            root = tmp_path / ("bom" if mark else "plain")
            root.mkdir()
            for name, blob in plain.items():
                (root / name).write_bytes(mark + blob)
            argv = ["evaluate", str(root / "c1.csv"), "--battery", "2kwh-1c",
                    "--tariff", str(root / "t.json"), "--out", str(root / "out")]
            assert cli.main(argv) == 0, capsys.readouterr().err
            rows[mark] = [data_lines((root / "out" / f"c1-2kwh-1c-{kind}.csv").read_text())
                          for kind in ("report", "dispatch")]
        assert rows[b"\xef\xbb\xbf"] == rows[b""]

    def test_convention_flags_are_echoed(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        proc = run_cli(
            "evaluate", fixture_dir / "c2.csv", "--battery", "1kwh-0.25c",
            "--months-12", "--eta-fric", "0.8", "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        text = (out / "c2-1kwh-0.25c-report.txt").read_text()
        assert "# expb_convention: months-12" in text
        assert "# eta_fric: 0.8" in text
        assert "# contracted_kva: auto" in text
        assert "# terminal_soc: no" in text

    def test_settings_that_differ_echo_and_hash_apart(self, tmp_path, fixture_dir, capsys):
        # 0.50000001 reads as 0.5 at six significant digits, yet its dispatch differs
        heads = []
        for eta in ("0.5", "0.50000001"):
            out = tmp_path / eta
            assert cli.main(["evaluate", str(fixture_dir / "c1.csv"), "--battery", "5kwh-2c",
                             "--eta-fric", eta, "--out", str(out)]) == 0
            dispatch = (out / "c1-5kwh-2c-dispatch.csv").read_text()
            heads.append([line for line in dispatch.splitlines() if line.startswith("#")])
        capsys.readouterr()
        assert "# eta_fric: 0.5" in heads[0] and "# eta_fric: 0.50000001" in heads[1]
        hashes = [next(line for line in head if line.startswith("# config_hash: ")) for head in heads]
        assert hashes[0] != hashes[1]

    def test_config_hash_takes_each_config_file_as_it_was_read(self, tmp_path, fixture_dir, monkeypatch,
                                                               capsys):
        # a tariff file rewritten while the candidate is solved changes neither the
        # dispatch, which was priced before, nor the config_hash of any file written
        tariff = spread_tariff(tmp_path)
        argv = ["evaluate", str(fixture_dir / "c1.csv"), "--battery", "2kwh-1c", "--tariff", str(tariff)]
        assert cli.main([*argv, "--out", str(tmp_path / "calm")]) == 0
        solve = cli.evaluate_candidate

        def rewriting(*args, **kwargs):
            tariff.write_text(json.dumps({"fallback_price": 0.5}))
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_candidate", rewriting)
        assert cli.main([*argv, "--out", str(tmp_path / "rewritten")]) == 0
        capsys.readouterr()
        assert json.loads(tariff.read_text()) == {"fallback_price": 0.5}
        names = sorted(path.name for path in (tmp_path / "calm").iterdir())
        assert len(names) == 3
        for name in names:
            assert (tmp_path / "rewritten" / name).read_bytes() == (tmp_path / "calm" / name).read_bytes(), name

    @pytest.mark.parametrize("command", [["evaluate", "--battery", "2kwh-1c"], ["sweep", "--jobs", "1"]],
                             ids=["evaluate", "sweep"])
    def test_config_hash_takes_the_scenario_as_it_was_read(self, tmp_path, fixture_dir, monkeypatch, capsys,
                                                           command):
        # a scenario file rewritten while it is solved changes no file written:
        # the dispatch and the config_hash both take the bytes read before
        lines = (fixture_dir / "c1.csv").read_text().splitlines(keepends=True)
        scenario = tmp_path / "c1.csv"
        scenario.write_text("".join(lines[: 3 + 288]))
        argv = [command[0], str(scenario), *command[1:]]
        assert cli.main([*argv, "--out", str(tmp_path / "calm")]) == 0
        solve = cli.evaluate_candidate

        def rewriting(*args, **kwargs):
            scenario.write_text("".join(lines[: 3 + 2 * 288]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_candidate", rewriting)
        assert cli.main([*argv, "--out", str(tmp_path / "rewritten")]) == 0
        capsys.readouterr()
        names = sorted(path.name for path in (tmp_path / "calm").iterdir())
        assert len(names) == (3 if command[0] == "evaluate" else 2)
        for name in names:
            assert (tmp_path / "rewritten" / name).read_bytes() == (tmp_path / "calm" / name).read_bytes(), name


class TestSweepCommand:
    def test_parallel_output_is_byte_identical(self, tmp_path, fixture_dir):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        one = run_cli(
            "sweep", fixture_dir / "c2.csv", "--jobs", "1", "--out", serial,
            cwd=tmp_path,
        )
        four = run_cli(
            "sweep", fixture_dir / "c2.csv", "--jobs", "4", "--out", parallel,
            cwd=tmp_path,
        )
        assert one.returncode == 0, one.stderr
        assert four.returncode == 0, four.stderr
        assert one.stdout == four.stdout
        for name in ("c2-sweep.txt", "c2-sweep.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

        rows = data_lines((serial / "c2-sweep.csv").read_text())
        assert len(rows) == 1 + 1 + 9  # column header, baseline, catalog
        assert rows[1].startswith("Load + PV,")

    def test_unsolvable_candidates_become_failure_rows(self, tmp_path, fixture_dir):
        # A forced 3.45 kVA contract is far below the c3 baseline peak, so
        # every candidate's dispatch is infeasible; the sweep must finish
        # with exit 0 and report each failure instead of aborting. The
        # failures cross the worker processes unchanged.
        runs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            proc = run_cli(
                "sweep", fixture_dir / "c3.csv", "--contracted-kva", "3.45",
                "--jobs", jobs, "--out", out, cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            runs[jobs] = (proc.stdout, *((out / f"c3-sweep.{ext}").read_bytes()
                                         for ext in ("txt", "csv")))
        assert runs["1"] == runs["2"]

        stdout, text, table = runs["1"]
        failed = [ln for ln in stdout.splitlines() if ln.startswith("# failed: ")]
        assert len(failed) == 9
        assert failed == sorted(failed)
        assert all("peak cap" in ln for ln in failed)
        assert sum(ln.startswith("# failed: ") for ln in text.decode().splitlines()) == 9
        rows = data_lines(table.decode())
        assert len(rows) == 1 + 1  # column header + baseline only

    def test_workers_are_capped_at_the_task_count(self, tmp_path, fixture_dir, monkeypatch,
                                                  capsys):
        fork, forks = os.fork, {}

        def counted_fork():
            pid = fork()
            if pid:
                forks[jobs] += 1
            return pid

        monkeypatch.setattr(cli.os, "fork", counted_fork)
        stdout = {}
        for jobs in ("1", "2", "12"):
            forks[jobs] = 0
            argv = ["sweep", str(fixture_dir / "c2.csv"), "--jobs", jobs,
                    "--out", str(tmp_path / jobs)]
            assert cli.main(argv) == 0
            stdout[jobs] = capsys.readouterr().out
            with pytest.raises(ChildProcessError):  # every worker was reaped
                os.waitpid(-1, os.WNOHANG)
        # one scenario x 9 catalog batteries; --jobs 1 forks none
        assert forks == {"1": 0, "2": 2, "12": 9}
        assert stdout["1"] == stdout["2"] == stdout["12"]

    def test_dying_worker_is_one_error_line(self, tmp_path, fixture_dir, monkeypatch, capsys):
        sweep_one = cli._sweep_one

        def dies_on_the_second_pair(task):
            config, _, spec = task
            if spec is config.catalog[1]:
                os._exit(3)
            return sweep_one(task)

        monkeypatch.setattr(cli, "_sweep_one", dies_on_the_second_pair)
        out = tmp_path / "out"
        argv = ["sweep", str(fixture_dir / "c2.csv"), "--jobs", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        # worker 1 takes pairs 1, 3, 5 and 7
        assert captured.err.splitlines() == ["error: sweep worker 1 exited with status 3"]
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_sweep_cannot_hang(self, tmp_path, fixture_dir):
        # Worker 0 fails at once while worker 1 blocks writing more than a
        # pipe buffer (64 KiB) that is never read; once its pipe is closed
        # it gets EPIPE and exits, so the run ends.
        argv = ["sweep", str(fixture_dir / "c2.csv"), "--jobs", "2", "--out", "out"]
        code = (
            "import os\n"
            "from bessprofit import cli\n"
            "def fails_or_floods(task):\n"
            "    config, _, spec = task\n"
            "    if spec is config.catalog[0]:\n"
            "        raise ValueError('worker 0 failed')\n"
            "    return None, (spec.name, 'x' * 100_000)\n"
            "cli._sweep_one = fails_or_floods\n"
            f"print(cli.main({argv!r}))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('reaped')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env=subprocess_env(), timeout=60)
        assert proc.stderr.splitlines() == ["error: worker 0 failed"]
        assert proc.stdout.splitlines() == ["1", "reaped"]
        assert not (tmp_path / "out").exists()

    def test_config_hash_depends_on_the_inputs_only(self, tmp_path, fixture_dir):
        # neither the spelling of the path nor the other scenarios enter c1's files
        for name in ("c1.csv", "c2.csv"):
            (tmp_path / name).write_bytes((fixture_dir / name).read_bytes())
        alone = run_cli("sweep", "c1.csv", "--out", "alone", cwd=tmp_path)
        paired = run_cli("sweep", "./c1.csv", "c2.csv", "--out", "paired", cwd=tmp_path)
        assert alone.returncode == 0, alone.stderr
        assert paired.returncode == 0, paired.stderr
        for name in ("c1-sweep.csv", "c1-sweep.txt"):
            assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "paired" / name).read_bytes()


class TestTuneCommand:
    def test_under_budget_battery_prints_identity_row(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        proc = run_cli(
            "tune", fixture_dir / "c2.csv", "--battery", "1kwh-0.25c",
            "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "eta_fric = 1 (no tuning needed)"
        table = dict(ln.split(None, 1) for ln in lines[1:])
        assert table["battery"].strip() == "1kwh-0.25c"
        assert float(table["eta_fric"]) == 1.0
        assert table["cycles_before"] == table["cycles_after"]
        assert proc.stderr == ""
        for suffix in ("tuned-report.txt", "tuned-report.csv", "tuned-dispatch.csv"):
            assert (out / f"c2-1kwh-0.25c-{suffix}").exists()

    def test_over_budget_battery_is_throttled(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        proc = run_cli(
            "tune", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
            "--tariff", spread_tariff(tmp_path), "--target", "5", "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "no tuning needed" not in lines[0]
        table = dict(ln.split(None, 1) for ln in lines)
        assert float(table["target_cycles"]) == 5.0
        assert float(table["eta_fric"]) < 1.0
        assert float(table["cycles_before"]) > 5.5
        assert float(table["cycles_after"]) <= 5.5
        assert (out / "c1-2kwh-1c-tuned-dispatch.csv").exists()

    @pytest.mark.parametrize(
        "case,battery,eta_fric,warning",
        [
            ("c2", "1kwh-0.25c", "0.543578", "warning: bisection finished without meeting "
             "|cycles - target| <= 0.5; returning eta_fric = 0.543578 with 0.20 cycles "
             "(target 3.00)"),
            ("c3", "2kwh-1c", "0.001000",
             "warning: cycle budget 3.00 unreachable: 8.31 cycles at eta_fric = 0.001"),
        ],
        ids=["bracket-scan", "unreachable"],
    )
    def test_tuning_warning_is_one_stderr_line(self, tmp_path, fixture_dir, case, battery,
                                               eta_fric, warning):
        proc = run_cli(
            "tune", fixture_dir / f"{case}.csv", "--battery", battery,
            "--tariff", spread_tariff(tmp_path), "--target", "3", "--out", tmp_path / "out",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [warning]
        table = dict(ln.split(None, 1) for ln in proc.stdout.splitlines())
        assert table["eta_fric"] == eta_fric

    def test_real_dispatches_reach_the_bracket_scan(self, tmp_path, fixture_dir):
        # on the c2 month the cycle count jumps across the budget, so the
        # bisection closes without a hit and all five scan points run
        scenario = load_scenario(fixture_dir / "c2.csv", tariff=load_tariff(spread_tariff(tmp_path)))
        spec = catalog_by_name(default_catalog())["1kwh-0.25c"]
        res = tune_friction(scenario, spec, DEFAULT_PPC_SCHEDULE, target_cycles=3.0)
        assert res.n_solves == 21  # untuned, 14 bisection steps, 5 scan points, then ETA_MIN
        assert res.warning.startswith("bisection finished")
        assert res.report.n_cyc_100 < 3.0

    def test_terminal_soc_holds_in_the_tuned_dispatch(self, tmp_path, fixture_dir):
        # five days of c1, over budget, so the friction search re-solves;
        # evaluate at a fixed friction must honour the flag as well
        lines = (fixture_dir / "c1.csv").read_text().splitlines(keepends=True)
        scenario = tmp_path / "c1-5d.csv"
        scenario.write_text("".join(lines[: 3 + 5 * 288]))
        out = tmp_path / "out"
        proc = run_cli(
            "tune", scenario, "--battery", "5kwh-2c", "--target", "0.5",
            "--terminal-soc", "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        table = dict(ln.split(None, 1) for ln in proc.stdout.splitlines())
        assert float(table["eta_fric"]) < 1.0
        proc = run_cli(
            "evaluate", scenario, "--battery", "5kwh-2c", "--eta-fric", "0.7",
            "--terminal-soc", "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("c1-5d-5kwh-2c-tuned-dispatch.csv", "c1-5d-5kwh-2c-dispatch.csv"):
            dispatch = (out / name).read_text()
            assert "# terminal_soc: yes" in dispatch, name
            b_final = float(data_lines(dispatch)[-1].split(",")[4])
            assert b_final >= 2.5 - 1e-9, name  # b_0 of a 5 kWh battery

    def test_targets_that_differ_hash_apart(self, tmp_path, fixture_dir, capsys):
        # 5.0000001 reads as 5 at six decimals; the hash takes the target as echoed
        lines = (fixture_dir / "c1.csv").read_text().splitlines(keepends=True)
        scenario = tmp_path / "c1-3d.csv"
        scenario.write_text("".join(lines[: 3 + 3 * 288]))
        hashes = []
        for target in ("5", "5.0000001"):
            out = tmp_path / target
            assert cli.main(["tune", str(scenario), "--battery", "5kwh-2c", "--target", target,
                             "--out", str(out)]) == 0
            dispatch = (out / "c1-3d-5kwh-2c-tuned-dispatch.csv").read_text()
            hashes.append(next(line for line in dispatch.splitlines() if line.startswith("# config_hash: ")))
        capsys.readouterr()
        assert hashes[0] != hashes[1]


FIFO = None  # a file entry of a failure row: make a FIFO there, with no writer


def _row(id_, argv, line, files=None, code=1):
    """``argv`` exits ``code`` with ``line`` last on stderr, ``files`` written first."""
    return pytest.param(argv, files or {}, code, line, id=id_)


def _scenario_row(id_, rows, message):
    """An evaluate of bad.csv: the header line, then ``rows``."""
    text = "".join(f"{row}\n" for row in ["timestamp,load_w,pv_w", *rows])
    return _row(id_, ["evaluate", "bad.csv", "--battery", "2kwh-1c"],
                f"error: scenario file bad.csv: {message}", {"bad.csv": text})


_KIND = {"--tariff": "tariff", "--ppc": "PPC", "--catalog": "catalog"}


def _config_row(id_, flag, content, message):
    """A sweep of c1 with one config file, bad.json, given as ``flag``."""
    return _row(id_, ["sweep", "c1.csv", flag, "bad.json"], f"error: {_KIND[flag]} file bad.json: {message}",
                {"bad.json": json.dumps(content)})


def _period(start, end, **price):
    return {"start": start, "end": end, **price}


def _battery_entry(**extra):
    return {"name": "x", "b_rated_kwh": 1, "charge_rate_c": 1, "discharge_rate_c": 1, **extra}


def _underflow_row(id_, eta, eta_fric, line, tariff=None):
    """An evaluate of c1 with battery x, whose efficiency ``eta`` is 1e-300, at
    ``eta_fric``, under ``tariff`` when given."""
    argv = ["evaluate", "c1.csv", "--battery", "x", "--catalog", "tiny.json", "--eta-fric", eta_fric]
    files = {"tiny.json": json.dumps({"batteries": [_battery_entry(**{eta: 1e-300})]})}
    if tariff:
        argv += ["--tariff", "t.json"]
        files["t.json"] = json.dumps(tariff)
    return _row(id_, argv, line, files)


def _load_step_row(id_, load_w, line):
    """An evaluate of one day at 100 W whose step 100 draws ``load_w`` W, past every contract level."""
    text = "".join(f"2019-06-01T{k // 12:02d}:{k % 12 * 5:02d}:00,{load_w if k == 100 else 100},0\n"
                   for k in range(288))
    return _row(id_, ["evaluate", "step.csv", "--battery", "2kwh-1c"], line,
                {"step.csv": "timestamp,load_w,pv_w\n" + text}, code=2)


_EVALUATE = ["evaluate", "c1.csv", "--battery", "2kwh-1c"]

# The last stderr line of each row; one that ends in "..." is a prefix, as
# the rest is Python's own text. Every argv runs with --out out appended.
FAILURES = [
    _row("missing-scenario-file", ["evaluate", "missing.csv", "--battery", "2kwh-1c"],
         "error: scenario file not found: missing.csv"),
    _row("scenario-fifo", ["evaluate", "pipe.csv", "--battery", "2kwh-1c"],
         "error: scenario file pipe.csv is not a regular file", {"pipe.csv": FIFO}),
    _row("tariff-fifo", [*_EVALUATE, "--tariff", "pipe.json"],
         "error: tariff file pipe.json is not a regular file", {"pipe.json": FIFO}),
    _row("unknown-battery-name", ["evaluate", "c1.csv", "--battery", "42kwh-9c"],
         "error: unknown battery '42kwh-9c'; catalog has: 1kwh-0.25c, 1kwh-1c, 1kwh-2c, "
         "2kwh-0.25c, 2kwh-1c, 2kwh-2c, 5kwh-0.25c, 5kwh-1c, 5kwh-2c"),
    _scenario_row("malformed-scenario-csv", ["not-a-time,100,0", "2019-06-01T00:05:00,100,0"],
                  "line 2: bad timestamp 'not-a-time'"),
    _scenario_row("mixed-utc-offset",
                  ["2019-06-01T00:00:00,100,0", "2019-06-01T00:05:00,100,0",
                   "2019-06-01T00:10:00+00:00,100,0", "2019-06-01T00:15:00,100,0"],
                  "line 4: timestamps mix naive and UTC-offset times"),
    _scenario_row("oversized-field",
                  ["2019-06-01T00:00:00,100,0", "2019-06-01T00:05:00,100,0",
                   "2019-06-01T00:10:00," + "1" * 131_073 + ",0"],
                  "line 4: field larger than field limit (131072)"),
    # a summer-time switch, five minutes apart: one offset would print 02:00 as 01:00
    _scenario_row("utc-offset-change",
                  ["2019-03-31T00:50:00+00:00,100,0", "2019-03-31T00:55:00+00:00,100,0",
                   "2019-03-31T02:00:00+01:00,100,0", "2019-03-31T02:05:00+01:00,100,0"],
                  "line 4: UTC offset changes from +00:00 to +01:00"),
    _scenario_row("non-utf8-scenario", ["2019-06-01T00:00:00,100,0", "2019-06-01T00:05:00,10\udcff,0"],
                  "'utf-8' codec can't decode byte 0xff in position 70: invalid start byte"),
    # the baseline is taken when the file is read, so the sweep fails before any solve
    _row("zero-total-load", ["sweep", "zero.csv", "c1.csv", "--jobs", "2"],
         "error: scenario file zero.csv: total load is zero; self-sufficiency undefined",
         {"zero.csv": "timestamp,load_w,pv_w\n"
                      + "".join(f"2019-06-01T{k // 12:02d}:{k % 12 * 5:02d}:00,0,100\n" for k in range(288))}),
    # a later scenario's error names its file
    _row("bad-later-scenario", ["sweep", "c1.csv", "bad2.csv"],
         "error: scenario file bad2.csv: line 3: bad power value",
         {"bad2.csv": "timestamp,load_w,pv_w\n2019-06-01T00:00:00,100,0\n2019-06-01T00:05:00,x,0\n"}),
    # 1e400 parses as an infinite float
    _row("infinite-catalog-capacity", ["sweep", "c1.csv", "--catalog", "bad.json"],
         "error: bad catalog entry {'name': 'x', 'b_rated_kwh': inf, 'charge_rate_c': 1, "
         "'discharge_rate_c': 1}: b_rated must be > 0 and finite",
         {"bad.json": '{"batteries": [{"name": "x", "b_rated_kwh": 1e400, "charge_rate_c": 1, '
                      '"discharge_rate_c": 1}]}'}),
    # 2C of 1e308 kWh is a finite spec whose charge power overflows to inf
    _row("overflowing-charge-power", ["evaluate", "c1.csv", "--battery", "x", "--catalog", "bad.json"],
         "error: bad catalog entry {'name': 'x', 'b_rated_kwh': 1e+308, 'charge_rate_c': 2, "
         "'discharge_rate_c': 1}: C-rate times b_rated must be finite",
         {"bad.json": json.dumps({"batteries": [_battery_entry(b_rated_kwh=1e308, charge_rate_c=2)]})}),
    # finite costs whose sum overflows, so that p_cyc would print as -inf
    _row("overflowing-cycle-cost", ["evaluate", "c1.csv", "--battery", "x", "--catalog", "bad.json"],
         "error: bad catalog entry {'name': 'x', 'b_rated_kwh': 1, 'charge_rate_c': 1, 'discharge_rate_c': 1, "
         "'cost_per_kwh': 1e+308, 'inverter_cost_per_kwh': 1e+308}: costs per cycle and times b_rated must "
         "be finite",
         {"bad.json": json.dumps({"batteries": [_battery_entry(cost_per_kwh=1e308, inverter_cost_per_kwh=1e308)]})}),
    # 1e300 €/kWh is a finite cost, but not for 1e10 kWh
    _row("overflowing-unit-cost", ["evaluate", "c1.csv", "--battery", "x", "--catalog", "bad.json"],
         "error: bad catalog entry {'name': 'x', 'b_rated_kwh': 10000000000.0, 'charge_rate_c': 1, "
         "'discharge_rate_c': 1, 'cost_per_kwh': 1e+300, 'inverter_cost_per_kwh': 0}: costs per cycle and "
         "times b_rated must be finite",
         {"bad.json": json.dumps({"batteries": [_battery_entry(b_rated_kwh=1e10, cost_per_kwh=1e300,
                                                               inverter_cost_per_kwh=0)]})}),
    # an eta_ch in (0, 1] whose 1/eta_ch overflows is the battery's fault, not the friction's
    _row("overflowing-battery-charge-factor", ["sweep", "c1.csv", "--catalog", "bad.json"],
         "error: bad catalog entry {'name': 'x', 'b_rated_kwh': 1, 'charge_rate_c': 1, 'discharge_rate_c': 1, "
         "'eta_ch': 1e-320}: 1/eta_ch must be finite, got eta_ch 9.99989e-321",
         {"bad.json": json.dumps({"batteries": [_battery_entry(eta_ch=1e-320)]})}),
    # 1.03e-318 cycles of 1e-6 kWh: n_cyc > 0, but n_cyc times b_rated underflows to 0
    _row("underflowing-cycle-divisor", ["evaluate", "c1.csv", "--battery", "x", "--catalog", "micro.json",
                                        "--damage-exp", "6981.69689372976"],
         "error: battery x: p_cyc overflows to inf",
         {"micro.json": json.dumps({"batteries": [_battery_entry(b_rated_kwh=1e-6)]})}),
    # finite numbers whose arithmetic overflows fail where the number is made: the
    # contract saving, fee difference times 30 days, and the baseline bill
    _row("overflowing-contract-saving", [*_EVALUATE, "--ppc", "big.json"],
         "error: battery 2kwh-1c: g_pd overflows to inf",
         {"big.json": json.dumps({"levels": [{"kva": kva, "eur_per_day": fee} for kva, fee in
                                             ((3.45, 1e307), (4.6, 5e307), (5.75, 1e308), (30, 1.5e308))]})}),
    _row("overflowing-baseline-bill", [*_EVALUATE, "--tariff", "big.json"],
         "error: scenario file c1.csv: baseline: energy_cost overflows to inf",
         {"big.json": json.dumps({"periods": [], "fallback_price": 1e308})}),
    _row("unreadable-tariff-file", [*_EVALUATE, "--tariff", "tariff.json"],
         "error: cannot read tariff file tariff.json: ...", {"tariff.json": "{not json"}),
    _row("non-utf8-tariff", [*_EVALUATE, "--tariff", "t.json"],
         "error: cannot read tariff file t.json: 'utf-8' codec can't decode byte 0xff in position 21: "
         "invalid start byte", {"t.json": '{"fallback_price": 0.\udcff}'}),
    # json reads integers with int(), which refuses past sys.get_int_max_str_digits()
    _row("many-digit-fallback", [*_EVALUATE, "--tariff", "t.json"],
         "error: cannot read tariff file t.json: ...", {"t.json": '{"fallback_price": ' + "1" * 5000 + "}"}),
    _config_row("fallback-nan", "--tariff", {"periods": [], "fallback_price": math.nan},
                "fallback_price must be finite and >= 0"),
    # 03:01-03:02 holds no 5-minute step, so no price ever reads it
    _config_row("unused-period-inf", "--tariff",
                {"periods": [_period("03:01", "03:02", price=math.inf)], "fallback_price": 0.1},
                "tariff prices must be finite and >= 0"),
    _config_row("periods-not-a-list", "--tariff", {"periods": 5, "fallback_price": 0.1},
                "'periods' must be a list"),
    _config_row("null-fallback", "--tariff", {"fallback_price": None}, "bad fallback_price None"),
    _config_row("numeric-string-fallback", "--tariff", {"fallback_price": "0.185"},
                "bad fallback_price '0.185'"),
    _config_row("overflowing-int-fallback", "--tariff", {"fallback_price": 10**309},
                f"bad fallback_price {10**309}"),
    _config_row("numeric-start", "--tariff",
                {"periods": [{"start": 8, "end": "10:00", "price": 0.2}], "fallback_price": 0.1},
                "bad start 8"),
    _config_row("misspelt-periods", "--tariff",
                {"period": [_period("08:00", "22:00", price=0.5)], "fallback_price": 0.1},
                "unknown key 'period'"),
    _config_row("string-price", "--tariff",
                {"periods": [_period("08:00", "22:00", price="cheap")], "fallback_price": 0.1},
                "bad price 'cheap'"),
    _config_row("missing-price", "--tariff", {"periods": [_period("08:00", "22:00")], "fallback_price": 0.1},
                "missing key 'price' in entry {'start': '08:00', 'end': '22:00'}"),
    _config_row("overlapping-periods", "--tariff",
                {"periods": [_period("08:00", "12:00", price=0.2), _period("10:00", "14:00", price=0.3)],
                 "fallback_price": 0.1},
                "tariff periods overlap at minute 600"),
    _config_row("string-kva", "--ppc", {"levels": [{"kva": "big", "eur_per_day": 0.1}]}, "bad kva 'big'"),
    _config_row("boolean-cost", "--ppc", {"levels": [{"kva": 3.45, "eur_per_day": True}]},
                "bad eur_per_day True"),
    _config_row("unknown-ppc-key", "--ppc",
                {"levels": [{"kva": lv.kva, "eur_per_day": lv.eur_per_day, "eur_per_month": 99}
                            for lv in DEFAULT_PPC_SCHEDULE.levels]},
                "unknown key 'eur_per_month' in entry "
                "{'kva': 3.45, 'eur_per_day': 0.1643, 'eur_per_month': 99}"),
    _config_row("unordered-ppc-levels", "--ppc",
                {"levels": [{"kva": 5.75, "eur_per_day": 0.2}, {"kva": 3.45, "eur_per_day": 0.3}]},
                "PPC levels must be strictly increasing in kVA and cost"),
    _config_row("batteries-not-a-list", "--catalog", {"batteries": 5}, "'batteries' must be a list"),
    _config_row("unknown-catalog-key", "--catalog", {"batteries": [_battery_entry(soc_min_fraction=0.5)]},
                "unknown key 'soc_min_fraction' in entry {'name': 'x', 'b_rated_kwh': 1, "
                "'charge_rate_c': 1, 'discharge_rate_c': 1, 'soc_min_fraction': 0.5}"),
    _config_row("numeric-name", "--catalog", {"batteries": [_battery_entry(name=7)]}, "bad name 7"),
    # evaluate and tune name their files after the battery, so a name holding '/' or
    # NUL fails before any solve; sweep only prints the names
    _row("battery-name-with-slash", ["evaluate", "c1.csv", "--battery", "a/b", "--catalog", "slash.json"],
         "error: battery name 'a/b' cannot be part of a file name: it holds '/' or NUL",
         {"slash.json": json.dumps({"batteries": [_battery_entry(name="a/b")]})}),
    _row("battery-name-with-nul", ["tune", "c1.csv", "--battery", "a\0b", "--catalog", "nul.json"],
         "error: battery name 'a\\x00b' cannot be part of a file name: it holds '/' or NUL",
         {"nul.json": json.dumps({"batteries": [_battery_entry(name="a\0b")]})}),
    _row("missing-required-battery-flag", ["evaluate", "c1.csv"],
         "error: the following arguments are required: --battery"),
    _row("unknown-subcommand", ["frobnicate"], "error: argument command: invalid choice: 'frobnicate' ..."),
    _row("step-minutes-mismatch", [*_EVALUATE, "--step-minutes", "15"],
         "error: scenario file c1.csv: requested step 15 min does not match file spacing 5 min"),
    _load_step_row("load-past-every-level", "30000",
                   "error: dispatch infeasible: baseline peak 30 kW exceeds the largest PPC level, 20.7 kVA"),
    # the peak is printed in %g form, not as 306 digits
    _load_step_row("overflowing-load-past-every-level", "1e308",
                   "error: dispatch infeasible: baseline peak 1e+305 kW exceeds the largest PPC level, 20.7 kVA"),
    # friction times an efficiency that underflows: a charge factor of 1/0, an inf
    # charge factor that a zero price turns into a nan slope, and a discharge factor of 0
    _underflow_row("charge-factor-divides-by-zero", "eta_ch", "1e-30",
                   "error: eta_fric 1e-30 underflows eta_ch 1e-300 or eta_dis 0.95"),
    _underflow_row("charge-factor-overflows", "eta_ch", "1e-10",
                   "error: eta_fric 1e-10 underflows eta_ch 1e-300 or eta_dis 0.95",
                   {"periods": [_period("03:00", "03:05", price=0)], "fallback_price": 0.185}),
    _underflow_row("discharge-factor-underflows", "eta_dis", "1e-30",
                   "error: eta_fric 1e-30 underflows eta_ch 0.95 or eta_dis 1e-300"),
    _row("unreachable-peak-cap-is-exit-two",
         ["evaluate", "c3.csv", "--battery", "1kwh-0.25c", "--contracted-kva", "3.45"],
         "error: dispatch infeasible: peak cap 3.45 kW unreachable at step 246", code=2),
    # a negative movement weight would pay the battery to charge and discharge in the same step
    _row("negative-epsilon", [*_EVALUATE, "--epsilon", "-0.5"], "error: epsilon must be >= 0, got -0.5"),
    _row("epsilon-inf", [*_EVALUATE, "--epsilon", "inf"], "error: epsilon must be finite, got inf"),
    _row("damage-exp-nan", [*_EVALUATE, "--damage-exp", "nan"],
         "error: damage exponent kp must be >= 1 and finite, got nan"),
    _row("damage-exp-inf", [*_EVALUATE, "--damage-exp", "inf"],
         "error: damage exponent kp must be >= 1 and finite, got inf"),
    # a spacing no file can have is a usage error, refused before any input is read
    _row("step-minutes-nan", [*_EVALUATE, "--step-minutes", "nan"],
         "error: --step-minutes must be > 0 and finite, got nan"),
    _row("step-minutes-zero", [*_EVALUATE, "--step-minutes", "0"],
         "error: --step-minutes must be > 0 and finite, got 0"),
    _row("step-minutes-inf", ["tune", "c1.csv", "--battery", "2kwh-1c", "--step-minutes", "inf"],
         "error: --step-minutes must be > 0 and finite, got inf"),
    _row("negative-step-minutes-before-a-bad-scenario", ["sweep", "c1.csv", "bad2.csv", "--step-minutes=-5"],
         "error: --step-minutes must be > 0 and finite, got -5",
         {"bad2.csv": "timestamp,load_w,pv_w\n2019-06-01T00:00:00,100,0\n2019-06-01T00:05:00,x,0\n"}),
    _row("target-nan", ["tune", "c1.csv", "--battery", "2kwh-1c", "--target", "nan"],
         "error: --target must be > 0 and finite, got nan"),
    _row("non-positive-target", ["tune", "c1.csv", "--battery", "2kwh-1c", "--target", "-5"],
         "error: --target must be > 0 and finite, got -5"),
    # raised in a worker process and re-raised from its pipe, traceback-free
    _row("worker-error", ["sweep", "c2.csv", "--jobs", "2", "--epsilon", "-0.5"],
         "error: epsilon must be >= 0, got -0.5"),
    _row("missing-later-scenario", ["sweep", "c1.csv", "missing.csv", "--jobs", "2"],
         "error: scenario file not found: missing.csv"),
    # both would write c1-sweep.csv and c1-sweep.txt
    _row("scenarios-with-the-same-file-name", ["sweep", "c1.csv", "b/c1.csv"],
         "error: scenarios c1.csv and b/c1.csv would write the same c1-sweep files",
         {"b/c1.csv": "timestamp,load_w,pv_w\n"}),
    _row("non-positive-jobs", ["sweep", "c1.csv", "--jobs", "0"], "error: --jobs must be >= 1"),
    _row("negative-seed", ["fixtures", "--seed", "-1"], "error: --seed must be >= 0"),
]


class TestFailureModes:
    @pytest.mark.parametrize("argv,files,code,line", FAILURES)
    def test_malformed_config_json_is_one_error_line(self, tmp_path, fixture_dir, monkeypatch, capsys,
                                                     argv, files, code, line):
        # every failure of the CLI, not only a malformed config, keeps the whole contract:
        # its exit code, no stdout, one error: line and no NumPy warning, no --out directory
        # and no child left
        for name in ("c1.csv", "c2.csv", "c3.csv", "c4.csv"):
            (tmp_path / name).symlink_to(fixture_dir / name)
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            if text is FIFO:
                os.mkfifo(path)
            else:  # a lone surrogate is written as the byte it stands for
                path.write_text(text, encoding="utf-8", errors="surrogateescape")
        monkeypatch.chdir(tmp_path)
        # a run that opens a FIFO would block; the alarm fails it instead
        handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the run blocked"))
        signal.alarm(20)
        try:
            with warnings.catch_warnings():  # a NumPy warning would be a second stderr line
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main([*argv, "--out", "out"]) == code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        out, err = capsys.readouterr()
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith(line[:-3]) if line.endswith("...") else last == line
        assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


EDGES = (0.0, 1e-300, 1e300, 1e308, sys.float_info.max)

# an ordinary one-battery run: its catalog entry, its tariff prices (day,
# night), its contract levels (kVA, €/day), the load and PV (W) of step
# EDGE_STEP of its scenario and, for evaluate, its friction; each field an
# edge value may take
EDGE_STEP = 100
USUAL = {
    "scenario.load_w": 500.0, "scenario.pv_w": 200.0, "eta_fric": 1.0,
    **{f"catalog.{key}": value for key, value in dict(
        b_rated_kwh=2.0, charge_rate_c=1.0, discharge_rate_c=1.0, soc_min_frac=0.1, soc_init_frac=0.5,
        soc_max_frac=1.0, eta_ch=0.95, eta_dis=0.95, cycle_life_100dod=4000.0, calendar_life_years=7.0,
        cost_per_kwh=300.0, inverter_cost_per_kwh=100.0).items()},
    "tariff.day": 0.3, "tariff.night": 0.08,
    **{f"ppc.{k}.{part}": value for k, level in enumerate([(3.45, 0.16), (6.9, 0.33), (13.8, 0.6)])
       for part, value in zip(("kva", "eur_per_day"), level)},
}


class TestEdgeValues:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["evaluate", "tune"]),
           edges=st.dictionaries(st.sampled_from(sorted(USUAL)), st.sampled_from(EDGES), min_size=1, max_size=3))
    # two runs that overflow in the dispatch's pieces, the charge slope and the cap's move, a
    # baseline peak past every level, and a charge factor that underflows, which the draw may miss
    @example(command="evaluate", edges={"catalog.eta_ch": 1e-300, "tariff.day": 1e300})
    @example(command="evaluate", edges={"catalog.eta_dis": 1e-300, "ppc.1.kva": 1e-300, "ppc.2.kva": 1e300})
    @example(command="evaluate", edges={"scenario.load_w": 1e308})
    @example(command="evaluate", edges={"catalog.eta_ch": 1e-300, "eta_fric": 1e-300})
    def test_edge_values_give_finite_numbers_or_one_error_line(self, fixture_dir, command, edges):
        # a run on one day with up to three catalog, tariff, contract-level,
        # scenario or friction numbers at an edge value ends one of three ways: exit 1 with one
        # error: line and no --out, exit 2 for an unreachable cap, or exit 0
        # with every number it writes finite, expb_years aside
        value = {**USUAL, **edges}
        lines = (fixture_dir / "c1.csv").read_text().splitlines(keepends=True)[: 3 + 288]
        stamp = lines[3 + EDGE_STEP].split(",")[0]
        lines[3 + EDGE_STEP] = f"{stamp},{value['scenario.load_w']!r},{value['scenario.pv_w']!r}\n"
        battery = {key[len("catalog."):]: v for key, v in value.items() if key.startswith("catalog.")}
        # each column sorted, so the levels stay increasing unless two are equal
        kvas, fees = (sorted(value[f"ppc.{k}.{part}"] for k in range(3)) for part in ("kva", "eur_per_day"))
        configs = {
            "c1.csv": "".join(lines),
            "catalog.json": json.dumps({"batteries": [{"name": "x", **battery}]}),
            "tariff.json": json.dumps({"periods": [_period("08:00", "22:00", price=value["tariff.day"])],
                                       "fallback_price": value["tariff.night"]}),
            "ppc.json": json.dumps({"levels": [{"kva": k, "eur_per_day": f} for k, f in zip(kvas, fees)]}),
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in configs.items():
                (Path(tmp) / name).write_text(text)
            paths = {name: str(Path(tmp) / name) for name in configs}
            out, err = io.StringIO(), io.StringIO()
            # a NumPy overflow warning would be a second stderr line; here it is an error
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.main([command, paths["c1.csv"], "--battery", "x", "--catalog", paths["catalog.json"],
                                 "--tariff", paths["tariff.json"], "--ppc", paths["ppc.json"],
                                 "--out", str(Path(tmp) / "out"),
                                 *(["--eta-fric", repr(value["eta_fric"])] if command == "evaluate" else [])])
            err_lines = err.getvalue().splitlines()
            if code in (1, 2):
                assert [ln.startswith("error:") for ln in err_lines] == [True], err_lines
                assert code == 1 or err_lines[0].startswith("error: dispatch infeasible: ")
                assert not (Path(tmp) / "out").exists()
                return
            assert code == 0, err_lines
            written = sorted((Path(tmp) / "out").glob("*.csv"))
            assert len(written) == 2, written  # the report and the dispatch
            for path in written:
                rows = [row.split(",") for row in path.read_text().splitlines() if not row.startswith("#")]
                for row in rows[1:]:
                    for column, cell in zip(rows[0], row):
                        try:
                            number = float(cell)
                        except ValueError:
                            continue
                        assert math.isfinite(number) or column == "expb_years", (path.name, column, cell)
