"""Per-problem minima of a parent and a change source tree, timed in
process and alternated problem by problem, to resolve changes of a few
per cent.

    python3 tools/minima.py /path/to/parent /path/to/change > minima.json

One child process per tree imports bessprofit from that tree's ``src/``
and uses its ``perfbench/workloads.py`` only to build the seed-2019
inputs. The tool then asks the two children for one problem at a time,
one right after the other, the first of the two alternating round by
round; the idle child waits on its pipe, so the two never run at once
and a slow spell of the host falls on both. Each child times its own
call. Every round goes once over every problem of three sets:

- ``sweep``: ``evaluate_candidate`` on the 36 ``sweep-j1`` pairs (the four
  fixtures cut to 3 days, times the nine catalog batteries);
- ``tune``: ``tune_friction`` on the 27 ``tune-noisy`` tunings (three
  noisy-price windows of 2 days, times the nine batteries);
- ``sweep-30d``: ``evaluate_candidate`` on the 36 pairs of the full 30-day
  fixtures.

Before any timing each child runs every problem once, untimed, with
``solve_dispatch`` wrapped where it is bound, in ``optimizer`` for
``select_ppc`` and in ``profitability`` for ``tune_friction``, to count
the dispatch solves of each set; the summary reports those counts per
tree. A pair of children gives, for each set, the sum over its problems
of each problem's least time in ``ROUNDS`` rounds, and the change's sum
over the parent's, minus one. Two processes of one tree can read a per
cent or more apart for their whole run, so this is done with ``PAIRS``
fresh pairs, and ``change`` is the median of their changes. The summary
is printed as JSON.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 2019
SETS = ("sweep", "tune", "sweep-30d")
ROUNDS = 10
PAIRS = 6


def child(tree: Path) -> None:
    """Build the inputs on ``tree``'s code, count each set's solves in one
    untimed pass, print each set's problem and solve counts, then run
    problem ``k`` of set ``name`` for each ``name k`` line read and print
    its wall time."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str((tree / "perfbench").resolve())]
    import bessprofit

    if Path(bessprofit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"minima: bessprofit was imported from {bessprofit.__file__}, not {src}")
    import workloads
    from bessprofit import optimizer, profitability
    from bessprofit.fixtures import gen_fixtures
    from bessprofit.profitability import evaluate_candidate, tune_friction
    from bessprofit.timeseries import DEFAULT_PPC_SCHEDULE, load_scenario

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sliced = workloads.make_inputs("sweep-j1", SEED, work / "sliced")
        noisy = workloads.make_inputs("tune-noisy", SEED, work / "noisy")
        scenarios = {
            "sweep": [load_scenario(path) for path in sliced.fixtures],
            "sweep-30d": [load_scenario(path) for path in gen_fixtures(SEED, work / "full")],
        }
    ppc = DEFAULT_PPC_SCHEDULE
    calls = {name: [lambda s=s, b=b: evaluate_candidate(s, b, ppc) for s in scenarios[name]
                    for b in sliced.batteries] for name in scenarios}
    calls["tune"] = [lambda w=w, b=b: tune_friction(w, b, ppc) for w in noisy.noisy for b in noisy.batteries]
    solved, solve = [], optimizer.solve_dispatch
    optimizer.solve_dispatch = profitability.solve_dispatch = lambda prob: solved.append(None) or solve(prob)
    solves = {}
    for name in SETS:
        solved.clear()
        for call in calls[name]:
            call()
        solves[name] = len(solved)
    optimizer.solve_dispatch = profitability.solve_dispatch = solve
    print(json.dumps({"problems": {name: len(calls[name]) for name in SETS}, "solves": solves}), flush=True)
    for line in sys.stdin:
        name, k = line.split()
        call = calls[name][int(k)]
        start = time.perf_counter()
        call()
        print(repr(time.perf_counter() - start), flush=True)


def _pair(env: dict[str, str], trees: dict[str, Path]) -> tuple[dict, dict]:
    """Each tree's sums of per-problem minima and its solve counts, by set,
    from one pair of children."""
    procs = {name: subprocess.Popen([sys.executable, __file__, "--child", str(path)], env=env, text=True,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE) for name, path in trees.items()}
    try:
        heads = {name: json.loads(proc.stdout.readline() or "null") for name, proc in procs.items()}
        counts = {name: head and head["problems"] for name, head in heads.items()}
        if counts["parent"] is None or counts["parent"] != counts["change"]:
            raise SystemExit(f"minima: the children did not build the same problems: {counts}")
        best = {name: {s: [math.inf] * counts["parent"][s] for s in SETS} for name in trees}
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for s in SETS:
                for k in range(counts["parent"][s]):
                    for name in order:
                        procs[name].stdin.write(f"{s} {k}\n")
                        procs[name].stdin.flush()
                        best[name][s][k] = min(best[name][s][k], float(procs[name].stdout.readline()))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    return ({name: {s: sum(best[name][s]) for s in SETS} for name in trees},
            {name: heads[name]["solves"] for name in trees})


def compare(parent: Path, change: Path) -> dict:
    # one string-hash seed for every child, so dict and set orders match
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "PYTHONHASHSEED": "0"}
    pairs, solves = zip(*(_pair(env, {"parent": parent, "change": change}) for _ in range(PAIRS)))
    changes = {s: [pair["change"][s] / pair["parent"][s] - 1.0 for pair in pairs] for s in SETS}
    return {
        "what": (f"sums of per-problem least wall times over {ROUNDS} rounds in each of {PAIRS} pairs of "
                 f"child processes, the parent and change trees alternated problem by problem, seed {SEED}; "
                 "tools/minima.py"),
        "sets": {"sweep": "evaluate_candidate on the 36 sweep-j1 pairs, 3 days",
                 "tune": "tune_friction on the 27 tune-noisy tunings, 2-day windows",
                 "sweep-30d": "evaluate_candidate on the 36 sweep pairs, 30 days"},
        "trees": {"parent": str(parent), "change": str(change)},
        "solves": solves[0],  # dispatch solves of one untimed pass, by tree and set
        "sum_of_minima_s": pairs,
        "change_by_pair": changes,
        "change": {s: statistics.median(changes[s]) for s in SETS},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"] and len(argv) == 2:
        child(Path(argv[1]))
        return 0
    if len(argv) != 2 or not all((Path(path) / "src" / "bessprofit").is_dir() for path in argv):
        print(f"usage: {sys.argv[0]} PARENT_TREE CHANGE_TREE (each a tree with src/bessprofit)", file=sys.stderr)
        return 2
    print(json.dumps(compare(Path(argv[0]), Path(argv[1])), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
