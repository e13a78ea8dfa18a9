"""Run one workload N times with different seeds; print each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/steady.py --workload emu_wafer --runs 10
    python3 perfbench/steady.py --workload emu_wafer --runs 10 --first-seed 101 --out a.json

Runs are sequential, one seed each (``first-seed``, ``first-seed + 1``,
...), untraced, at the ``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound.  A spread
under a third of the bound is steady; ``setup_s`` is exempt from the
spread rule but not from the bound between two sets of runs.  With
``--compare`` it also prints how far this set's median moved from a set
saved earlier with ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="save the per-run values as JSON")
    parser.add_argument("--compare", help="a file saved by --out to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    section = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in section}
    failed = 0
    for run in range(args.runs):
        seed = args.first_seed + run
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    before = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print(f"\n{args.workload}: {args.runs} runs, {failed} failed ops")
    print(f"{'metric':42s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} "
          f"{'bound':>6s}" + (f" {'moved':>8s}" if before else ""))
    for metric in section:
        name = metric["name"]
        vals = values[name]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        line = (f"{name:42s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                f"{metric['bound']:>6}")
        if before.get(name):
            old = statistics.median(before[name])
            moved = (median - old) / old if old else float("nan")
            line += f" {moved:+8.3f}"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
