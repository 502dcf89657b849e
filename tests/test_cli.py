"""End-to-end command-line behavior, run as real subprocesses.

Covers the four subcommands, the documented exit-code contract (0 ok,
1 usage/config/parse, 2 unsolvable dispatch), convention echoing in the
output headers, and byte-for-byte reproducibility of generated files.
The sweep's fork-count and dying-worker checks call ``cli.main``
in-process instead, so that they can wrap ``os.fork`` and stand in for
``_sweep_one`` in the forked workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from _support import subprocess_env
from bessprofit import cli
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
    # SciPy is a test-only dependency: only the LP reference needs it, so
    # evaluate, tune and a forked sweep all run with every SciPy import
    # failing; none of them loads multiprocessing or concurrent.futures either
    c1 = str(fixture_dir / "c1.csv")
    argvs = [
        ["evaluate", c1, "--battery", "2kwh-1c", "--out", str(tmp_path / "evaluate")],
        ["tune", c1, "--battery", "2kwh-1c", "--out", str(tmp_path / "tune")],
        ["sweep", c1, "--jobs", "2", "--out", str(tmp_path / "sweep")],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import bessprofit, bessprofit.cli\n"
        f"rcs = [bessprofit.cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([rcs, sys.modules['scipy'], sorted(m for m in sys.modules"
        " if m.startswith(('scipy.', 'multiprocessing', 'concurrent')))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], None, []]
    assert (tmp_path / "sweep" / "c1-sweep.csv").is_file()


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
        _, dispatch, _ = evaluate_candidate(scenario, spec, DEFAULT_PPC_SCHEDULE, Conventions())
        z, x, s, theta, price = scenario.z, dispatch.x, dispatch.s, dispatch.theta, scenario.price
        soc = dispatch.soc_trajectory(spec.b_0)
        expected = [
            f"{stamp.isoformat()},{z[i]:.6f},{x[i]:.6f},{s[i]:.6f},{soc[i + 1]:.6f},"
            f"{theta[i]:.6f},{price[i]:.4f}"
            for i, stamp in enumerate(scenario.step_times())
        ]
        steps = data_lines((out / "c1-2kwh-1c-dispatch.csv").read_text())
        assert steps[1:] == expected

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
        assert list(out.iterdir()) == []
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
        assert list((tmp_path / "out").iterdir()) == []

    def test_scenarios_with_the_same_file_name_are_refused(self, tmp_path, fixture_dir):
        # both would write c1-sweep.csv and c1-sweep.txt
        other = tmp_path / "b" / "c1.csv"
        other.parent.mkdir()
        other.write_bytes((fixture_dir / "c1.csv").read_bytes())
        out = tmp_path / "out"
        proc = run_cli("sweep", fixture_dir / "c1.csv", other, "--out", out, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: scenarios {fixture_dir / 'c1.csv'} and {other} would write the same c1-sweep files"
        ]
        assert proc.stdout == ""
        assert not out.exists()

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
        assert res.n_solves == 21  # untuned, ETA_MIN, 14 bisection steps, 5 scan points
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

    def test_non_positive_target_is_a_usage_error(self, tmp_path, fixture_dir):
        proc = run_cli(
            "tune", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
            "--target", "-5", cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "error: --target must be > 0" in proc.stderr


class TestFailureModes:
    def test_missing_scenario_file(self, tmp_path):
        proc = run_cli("evaluate", "missing.csv", "--battery", "2kwh-1c", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error: scenario file not found" in proc.stderr

    def test_unknown_battery_name(self, tmp_path, fixture_dir):
        proc = run_cli(
            "evaluate", fixture_dir / "c1.csv", "--battery", "42kwh-9c", cwd=tmp_path
        )
        assert proc.returncode == 1
        assert "unknown battery" in proc.stderr
        assert "42kwh-9c" in proc.stderr

    def test_malformed_scenario_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,load_w,pv_w\nnot-a-time,100,0\n2019-06-01T00:05:00,100,0\n")
        proc = run_cli("evaluate", bad, "--battery", "2kwh-1c", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "third,message",
        [
            ("2019-06-01T00:10:00+00:00,100,0", "error: line 4: timestamps mix naive and UTC-offset times"),
            ("2019-06-01T00:10:00," + "1" * 131_073 + ",0",
             "error: line 4: field larger than field limit (131072)"),
        ],
        ids=["mixed-utc-offset", "oversized-field"],
    )
    def test_bad_scenario_row_is_one_error_line(self, tmp_path, third, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,load_w,pv_w\n2019-06-01T00:00:00,100,0\n"
                       f"2019-06-01T00:05:00,100,0\n{third}\n2019-06-01T00:15:00,100,0\n")
        proc = run_cli("evaluate", bad, "--battery", "2kwh-1c", "--out", tmp_path / "out", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]

    def test_infinite_catalog_capacity_is_rejected(self, tmp_path, fixture_dir):
        # 1e400 parses as an infinite float
        catalog = tmp_path / "catalog.json"
        catalog.write_text('{"batteries": [{"name": "x", "b_rated_kwh": 1e400, '
                           '"charge_rate_c": 1, "discharge_rate_c": 1}]}')
        out = tmp_path / "out"
        proc = run_cli("sweep", fixture_dir / "c1.csv", "--catalog", catalog, "--out", out, cwd=tmp_path)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: bad catalog entry ")
        assert proc.stderr.rstrip().endswith("b_rated must be > 0 and finite")
        assert list(out.rglob("*")) == []

    def test_unreadable_tariff_file(self, tmp_path, fixture_dir):
        tariff = tmp_path / "tariff.json"
        tariff.write_text("{not json")
        proc = run_cli(
            "evaluate", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
            "--tariff", tariff, cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "error: cannot read tariff file" in proc.stderr

    @pytest.mark.parametrize(
        "tariff,message",
        [
            ({"periods": [], "fallback_price": "nan"},
             "error: tariff file tariff.json: fallback_price must be finite and >= 0"),
            # 03:01-03:02 holds no 5-minute step, so no price ever reads it
            ({"periods": [{"start": "03:01", "end": "03:02", "price": "inf"}],
              "fallback_price": 0.1},
             "error: tariff file tariff.json: tariff prices must be finite and >= 0"),
        ],
        ids=["fallback-nan", "unused-period-inf"],
    )
    def test_non_finite_tariff_price_is_rejected(self, tmp_path, fixture_dir, tariff, message):
        path = tmp_path / "tariff.json"
        path.write_text(json.dumps(tariff))
        out = tmp_path / "out"
        proc = run_cli("evaluate", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
                       "--tariff", path.name, "--out", out, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,content,message",
        [
            ("--tariff", {"periods": 5, "fallback_price": 0.1},
             "error: tariff file bad.json: 'periods' must be a list"),
            ("--tariff", {"fallback_price": None},
             "error: tariff file bad.json: bad fallback_price None"),
            ("--tariff", {"periods": [{"start": 8, "end": "10:00", "price": 0.2}], "fallback_price": 0.1},
             "error: tariff file bad.json: bad start 8"),
            ("--tariff", {"period": [{"start": "08:00", "end": "22:00", "price": 0.5}], "fallback_price": 0.1},
             "error: tariff file bad.json: unknown key 'period'"),
            ("--tariff", {"periods": [{"start": "08:00", "end": "22:00", "price": "cheap"}], "fallback_price": 0.1},
             "error: tariff file bad.json: bad price 'cheap'"),
            ("--tariff", {"periods": [{"start": "08:00", "end": "22:00"}], "fallback_price": 0.1},
             "error: tariff file bad.json: missing key 'price' in entry {'start': '08:00', 'end': '22:00'}"),
            ("--ppc", {"levels": [{"kva": "big", "eur_per_day": 0.1}]},
             "error: PPC file bad.json: bad kva 'big'"),
            ("--ppc", {"levels": [{"kva": lv.kva, "eur_per_day": lv.eur_per_day, "eur_per_month": 99}
                                  for lv in DEFAULT_PPC_SCHEDULE.levels]},
             "error: PPC file bad.json: unknown key 'eur_per_month' in entry "
             "{'kva': 3.45, 'eur_per_day': 0.1643, 'eur_per_month': 99}"),
            ("--tariff", {"periods": [{"start": "08:00", "end": "12:00", "price": 0.2},
                                      {"start": "10:00", "end": "14:00", "price": 0.3}],
                          "fallback_price": 0.1},
             "error: tariff file bad.json: tariff periods overlap at minute 600"),
            ("--ppc", {"levels": [{"kva": 5.75, "eur_per_day": 0.2}, {"kva": 3.45, "eur_per_day": 0.3}]},
             "error: PPC file bad.json: PPC levels must be strictly increasing in kVA and cost"),
            ("--catalog", {"batteries": 5},
             "error: catalog file bad.json: 'batteries' must be a list"),
            ("--catalog", {"batteries": [{"name": "x", "b_rated_kwh": 1, "charge_rate_c": 1,
                                          "discharge_rate_c": 1, "soc_min_fraction": 0.5}]},
             "error: catalog file bad.json: unknown key 'soc_min_fraction' in entry {'name': 'x', "
             "'b_rated_kwh': 1, 'charge_rate_c': 1, 'discharge_rate_c': 1, 'soc_min_fraction': 0.5}"),
        ],
        ids=["periods-not-a-list", "null-fallback", "numeric-start", "misspelt-periods", "string-price",
             "missing-price", "string-kva", "unknown-ppc-key", "overlapping-periods", "unordered-ppc-levels",
             "batteries-not-a-list", "unknown-catalog-key"],
    )
    def test_malformed_config_json_is_one_error_line(self, tmp_path, fixture_dir, flag, content,
                                                     message):
        (tmp_path / "bad.json").write_text(json.dumps(content))
        out = tmp_path / "out"
        proc = run_cli("sweep", fixture_dir / "c1.csv", flag, "bad.json", "--out", out, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]
        assert not out.exists()

    def test_missing_required_battery_flag(self, tmp_path, fixture_dir):
        proc = run_cli("evaluate", fixture_dir / "c1.csv", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "required: --battery" in proc.stderr.splitlines()[-1]

    def test_unknown_subcommand(self, tmp_path):
        proc = run_cli("frobnicate", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "invalid choice: 'frobnicate'" in proc.stderr.splitlines()[-1]

    def test_step_minutes_mismatch(self, tmp_path, fixture_dir):
        proc = run_cli(
            "evaluate", fixture_dir / "c1.csv", "--battery", "2kwh-1c",
            "--step-minutes", "15", cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")

    def test_unreachable_peak_cap_is_exit_two(self, tmp_path, fixture_dir):
        proc = run_cli(
            "evaluate", fixture_dir / "c3.csv", "--battery", "1kwh-0.25c",
            "--contracted-kva", "3.45", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: dispatch infeasible: ")
        assert "peak cap 3.45 kW unreachable at step " in proc.stderr

    def test_negative_epsilon_is_rejected(self, tmp_path, fixture_dir):
        # a negative movement weight would pay the battery to charge and
        # discharge in the same step
        proc = run_cli(
            "evaluate", fixture_dir / "c1.csv", "--battery", "1kwh-1c",
            "--epsilon", "-0.5", "--out", tmp_path / "out", cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: epsilon must be >= 0, got -0.5"]
        assert not (tmp_path / "out" / "c1-1kwh-1c-report.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "c1.csv", "--battery", "1kwh-1c", "--damage-exp", "nan"),
            ("evaluate", "c1.csv", "--battery", "1kwh-1c", "--damage-exp", "inf"),
            ("evaluate", "c1.csv", "--battery", "1kwh-1c", "--step-minutes", "nan"),
            ("tune", "c1.csv", "--battery", "1kwh-1c", "--target", "nan"),
            ("evaluate", "c1.csv", "--battery", "2kwh-1c", "--epsilon", "inf"),
        ],
        ids=["damage-exp-nan", "damage-exp-inf", "step-minutes-nan", "target-nan", "epsilon-inf"],
    )
    def test_non_finite_numbers_are_rejected(self, tmp_path, fixture_dir, argv):
        command, scenario, *flags = argv
        out = tmp_path / "out"
        proc = run_cli(command, fixture_dir / scenario, *flags, "--out", out, cwd=tmp_path)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert list(out.rglob("*")) == []

    def test_worker_error_keeps_the_exit_contract(self, tmp_path, fixture_dir):
        # raised in a worker process and re-raised from its pipe, traceback-free
        proc = run_cli(
            "sweep", fixture_dir / "c2.csv", "--jobs", "2", "--epsilon", "-0.5",
            "--out", tmp_path / "out", cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: epsilon must be >= 0, got -0.5"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_later_scenario_fails_before_any_output(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        proc = run_cli(
            "sweep", fixture_dir / "c1.csv", "missing.csv", "--jobs", "2",
            "--out", out, cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: scenario file not found: missing.csv"]
        assert proc.stdout == ""
        assert list(out.iterdir()) == []

    def test_non_positive_jobs_is_a_usage_error(self, tmp_path, fixture_dir):
        proc = run_cli("sweep", fixture_dir / "c1.csv", "--jobs", "0", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error: --jobs must be >= 1" in proc.stderr.splitlines()[-1]
