#!/usr/bin/env python3
"""Collects sets of benchmark runs and judges them against BENCHMARK.json.

    python3 perfbench/steadiness.py collect DIR --seeds 1-10 [--workloads a,b]
    python3 perfbench/steadiness.py compare A [B]

`collect` runs perfbench/run.py once per (workload, seed), one after the
other, and keeps each run's result line as DIR/<workload>-s<seed>.json and
its whole report as DIR/<workload>-s<seed>.log.

`compare` prints, per workload and end-to-end metric, the median and the
quartiles (statistics.quantiles, n=4) of each set and the spread: the
distance between the quartiles as a share of the median. With one set the
verdict is about steadiness: "steady" below a third of the metric's bound,
"within bound" up to the bound, "unsteady" beyond it (setup_s is exempt
from the spread rule). With two sets it compares B against A: "worse" when
B's median is worse than A's by more than the bound, "within bound" when it
is not, and "unresolved" when either spread exceeds the bound, unless every
run of B reads better than every run of A. Exits 1 when any verdict is
"unsteady", "worse" or "unresolved".
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args):
    bench = spec()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    for name in names:
        for seed in seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {run.returncode}",
                      file=sys.stderr)
                return 1
            (out / f"{name}-s{seed}.json").write_text(lines[-1] + "\n")
            (out / f"{name}-s{seed}.log").write_text(run.stdout)
            env = next((l for l in lines if l.startswith("env ")), "")
            values = json.loads(lines[-1])["metrics"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in values.items())
                + f"  [{env.split('loadavg_before=')[-1]}]", flush=True)
    return 0


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload = path.stem.rsplit("-s", 1)[0]
        runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(args):
    bench = spec()
    sets = [load(d) for d in ([args.a] + ([args.b] if args.b else []))]
    bad = 0
    for workload in sorted(sets[0]):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            columns = []
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"]
                          for r in runs.get(workload, [])]
                if len(values) < 2:
                    columns.append("   (too few runs)")
                    stats.append(None)
                    continue
                median, q1, q3, spread = summary(values)
                stats.append((values, median, spread))
                columns.append(f"{median:>12.5g} [{q1:.5g} .. {q3:.5g}] "
                               f"spread {spread:6.1%}")
            if any(s is None for s in stats):
                verdict = "unresolved"
            elif len(stats) == 1:
                spread = stats[0][2]
                verdict = ("steady" if spread < bound / 3 or name == "setup_s"
                           else "within bound" if spread <= bound
                           else "unsteady")
            else:
                (va, ma, sa), (vb, mb, sb) = stats
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                spread_ok = name == "setup_s" or (sa <= bound and sb <= bound)
                if not spread_ok and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                else:
                    verdict = f"within bound ({-worse:+.1%})"
            if verdict.split()[0] in ("unsteady", "worse", "unresolved"):
                bad += 1
            print(f"{workload:<12} {name:<17} bound {bound:>4.0%} | "
                  + " | ".join(columns) + f" | {verdict}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    args = ap.parse_args()
    return collect(args) if args.mode == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
