"""The byte contract: every file that the CLI writes on the four fixtures,
and the exit code, stdout and stderr of every run, hashed (SHA-256) and
held to ``cli_digests.json``. The output root prints as ``<out>``.

The fixtures come from NumPy's ``default_rng``, whose streams are not
promised across NumPy versions, and CPython 3.12 changed how ``sum()``
adds floats; so the digests hold for the Python and NumPy versions stored
with them. A change that moves a byte on purpose records them again with
``PYTHONPATH=src python tests/test_byte_contract.py``, which prints every
key it adds (``new``), drops (``missing``) or changes (``changed``) before
it writes; the change names each of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from bessprofit import cli

DIGESTS = Path(__file__).with_name("cli_digests.json")
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__}
HALF_HOURLY = "half-hourly-tariff.json"


def _half_hourly_tariff() -> str:
    """48 half-hour periods, each at its own price: a problem under it has
    more than 48 distinct slopes, so its dispatch takes the list DP."""
    periods = [{"start": f"{k // 2:02d}:{k % 2 * 30:02d}",
                "end": "24:00" if k == 47 else f"{(k + 1) // 2:02d}:{(k + 1) % 2 * 30:02d}",
                "price": round(0.10 + 0.002 * (7 * k % 48), 3)} for k in range(48)]
    return json.dumps({"periods": periods, "fallback_price": 0.15})


def _runs(root: Path) -> list[list[str]]:
    """Every run's argv, in order, each writing to its own directory under ``root``."""
    csvs = [str(root / "fixtures" / f"c{k}.csv") for k in (1, 2, 3, 4)]
    runs = [["fixtures", "--seed", "2019", "--out", str(root / "fixtures")],
            *(["sweep", *csvs, "--jobs", jobs, "--out", str(root / f"sweep-j{jobs}")] for jobs in "12")]
    for csv in csvs:
        for battery in ("1kwh-0.25c", "2kwh-1c", "5kwh-2c"):
            runs += [[command, csv, "--battery", battery, "--out", str(root / command)]
                     for command in ("evaluate", "tune")]
    runs.append(["sweep", csvs[2], "--contracted-kva", "3.45", "--out", str(root / "sweep-3.45")])
    runs.append(["evaluate", csvs[2], "--battery", "1kwh-0.25c", "--contracted-kva", "3.45",
                 "--out", str(root / "evaluate-3.45")])  # exit 2
    # list-DP runs: 48.8 cycles untuned and 4.0 at eta_fric 0.5005, so the
    # search bisects up from there, hits nothing and solves the floor last
    tariff = ["--battery", "5kwh-2c", "--tariff", str(root / HALF_HOURLY)]
    runs.append(["evaluate", csvs[0], *tariff, "--out", str(root / "evaluate-half-hourly")])
    runs.append(["tune", csvs[0], *tariff, "--target", "8", "--out", str(root / "tune-half-hourly")])
    return runs


def collect(root: Path) -> dict[str, object]:
    """Run everything under ``root``: the outcome of each run, by its argv, and the digest of each file."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    digests: dict[str, object] = {}
    (root / HALF_HOURLY).write_text(_half_hourly_tariff())
    for argv in _runs(root):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        key, stdout, stderr = (text.replace(str(root), "<out>")
                               for text in (" ".join(argv), out.getvalue(), err.getvalue()))
        digests[key] = {"exit": code, "stdout": sha(stdout.encode()), "stderr": sha(stderr.encode())}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests[path.relative_to(root).as_posix()] = sha(path.read_bytes())
    return digests


def differences(want: dict[str, object], got: dict[str, object]) -> list[str]:
    """``key: missing``, ``new`` or ``changed`` for every key whose digest differs, in key order."""
    return [f"{key}: {'missing' if key not in got else 'new' if key not in want else 'changed'}"
            for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]


def test_cli_artifacts_match_their_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    differ = differences(recorded["digests"], collect(tmp_path))
    assert not differ, (
        f"{len(differ)} of {len(recorded['digests'])} digests differ; recorded on Python {recorded['python']}, "
        f"NumPy {recorded['numpy']}; this is Python {VERSIONS['python']}, NumPy {VERSIONS['numpy']}:\n  "
        + "\n  ".join(differ))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = collect(Path(tmp))
    # name every key that moves, so that a change can list them
    for line in differences(json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}, got):
        print(line)
    DIGESTS.write_text(json.dumps({**VERSIONS, "digests": got}, indent=1, sort_keys=True) + "\n")
