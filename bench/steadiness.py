"""Run the benchmark over sets of seeds; report each metric's spread and how the sets agree.

    python3 bench/steadiness.py --workload cli-readme --workload long-words \\
        --seeds 1-10 --seeds 11-20

Each ``--seeds`` range is one set of runs; ``bench/run.py`` runs once per
seed, one run at a time.  For every end-to-end metric of every set it prints
the median, the quartiles and the distance between the quartiles as a share
of the median, next to the metric's bound in ``BENCHMARK.json``: ``steady``
below a third of the bound, ``in bound`` up to the bound, ``WIDE`` beyond it.
For each later set it prints how far its median moved from the first set's,
as a share of the first, signed so that positive is worse, and ``agree`` or
``DISAGREE`` against the bound.  The exit code is 0 when every answer was
correct, every spread is within its bound and every set agrees with the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload: str, seeds: list, seconds: int) -> tuple:
    """({metric: [values]}, all answers correct) over one run per seed."""
    values: dict = {}
    correct = True
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not report["correct"]:
            print(f"{workload} seed {seed}: incorrect answers\n{proc.stderr}", file=sys.stderr)
            correct = False
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", type=seed_range, help="a seed range such as 1-10; repeat for more sets")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    metrics = {m["name"]: m for m in config["end_to_end"]}
    sets = args.seeds or [seed_range("1-10")]
    ok = True
    for workload in args.workload:
        medians = []
        for seeds in sets:
            values, correct = run_set(workload, seeds, seconds)
            ok = ok and correct
            medians.append({name: statistics.median(xs) for name, xs in values.items()})
            print(f"{workload}: seeds {seeds[0]}-{seeds[-1]}, {len(seeds)} runs of {seconds} s")
            for name, xs in values.items():
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = stats.quartile_spread(xs)
                bound = metrics[name]["bound"]
                verdict = "steady" if spread < bound / 3 else "in bound" if spread <= bound else "WIDE"
                ok = ok and verdict != "WIDE"
                line = (f"  {name:12s} median {medians[-1][name]:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                        f"spread {spread:6.2%}  bound {bound:5}  {verdict}")
                if len(medians) > 1:
                    first = medians[0][name]
                    sign = 1 if metrics[name]["better"] == "lower" else -1
                    worse = sign * (medians[-1][name] - first) / first
                    ok = ok and worse <= bound
                    line += f"  vs first set {worse:+7.2%}  {'agree' if worse <= bound else 'DISAGREE'}"
                print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
