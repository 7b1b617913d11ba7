#!/usr/bin/env python3
"""End-to-end benchmark of the sss search stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are taken relative to this
file). Each run

  1. builds perfbench_driver from perfbench/CMakeLists.txt against ../src
     into .bench_build/ (a no-op after the first run);
  2. generates the workload's corpora and query pool from --seed with
     sss::gen, writes them as text files, and computes every expected answer
     with the partition index (untimed: `perfbench_driver prepare`);
  3. loads those files through EngineHost::LoadFile, serves them, drives the
     load for --seconds, and checks every answer (`perfbench_driver run`);
  4. prints every metric by name with its unit, then one JSON line:
     {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end_to_end metrics of BENCHMARK.json. --trace 1 runs
the same phase untraced and then traced (spans around the public calls,
StatsSinks attached, a serial replay of the query pool on the served
engine), reports the per_layer metrics, the tracing overhead of every
end-to-end metric, the reconciliation of client p50 on city_routed, and
writes the spans to .bench_build/runs/<workload>-s<seed>/spans.tsv.

Workloads (BENCHMARK.json says why each exists):
  dna_batch    75k DNA reads, 400-query batches (k 0/4/8/16) through
               Searcher::SearchBatch: scan, kSharded, 4 threads, kernel auto.
  city_serve   4 batch clients, each on its own connection sending bursts
               of 8 requests and waiting for all 8 replies, into a direct
               server (scan) over 40k city names, k 0..3.
  city_routed  the same clients into a front server whose handler calls
               Router::Dispatch over 2 shard servers holding one half of
               the corpus each.
  city_reload  the same clients into a direct server that reloads every
               1.5 s, alternating between two corpora.

End-to-end metrics, every workload:
  setup_s           LoadFile + Server::Start (+ router), median of 31 set-ups
  qps               correct answers per second
  p50_ms, p99_ms    exact percentiles of per-request latency, send to reply
                    (per 400-query batch on dna_batch)
  cpu_ms_per_query  process user+sys CPU over the load / correct answers
  rss_mb            peak resident set size of the measuring process
reload_s, the median Server::Reload (EngineHost::Reload on dna_batch) under
load on city_reload and idle after the load elsewhere, is printed but not
a BENCHMARK.json metric: these ~1 ms reloads spread 17-38% between runs.
error_ratio (failed over attempted, with the failures by cause) is printed
as a check; it is zero whenever the run is correct.

Exit status: 0 when every answer matched the reference; 1 when one did not
(the report is still printed); any other failure (build, inputs, timeout)
exits non-zero without a result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_times():
    """(total, idle + iowait, steal) jiffies of the machine's CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return sum(v), v[3] + v[4], v[7]


def share(before, after, field):
    return (after[field] - before[field]) / max(1, after[0] - before[0])


def cpu_busy_share(seconds=0.25):
    """Share of the machine's CPU time not idle over a short interval."""
    before = cpu_times()
    time.sleep(seconds)
    return 1.0 - share(before, cpu_times(), 1)


def environment(seed, load_before, load_after, busy_share, steal_share):
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        git = sha.stdout.strip() if sha.returncode == 0 else "none"
    except OSError:
        git = "none"
    # Busy: more than a quarter of the CPUs were working before the run.
    busy = busy_share > 0.25
    return (f"env nproc={nproc} cpu=\"{cpu}\" build={build_type} git={git} "
            f"seed={seed} loadavg_before={load_before:.2f} "
            f"loadavg_after={load_after:.2f} cpu_busy_before={busy_share:.0%} "
            f"started_busy={'yes' if busy else 'no'} "
            f"steal_during_run={steal_share:.1%}")


def fmt(value):
    return f"{value:.6g}"


def report(spec, args, out):
    e2e, info = out["e2e"], out["info"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    n = int(info.get("latency_samples", 0))
    supported = info.get("latency_supported_pct", 0)
    notes = {
        "setup_s": "median of 31 set-ups",
        "p50_ms": f"n={n}",
        "p99_ms": f"n={n}, highest percentile with >=10 samples beyond: "
                  + (f"p{supported:g}" if supported else "none"),
    }
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"e2e   {name:<28} {fmt(e2e[name]):>14} {unit}{note}")
    print(f"info  {'reload_s':<28} {fmt(e2e['reload_s']):>14} s  "
          f"(median of {int(info.get('reloads', 0))} reloads)")
    line = (f"check error_ratio={fmt(info['error_ratio'])} "
            f"({out['failed']} of {out['attempted']} failed, "
            f"{int(info['warmup_failed'])} in warm-ups)")
    if out["failed"]:
        line += " by cause: " + " ".join(
            f"{k.split('_', 1)[1]}={int(v)}" for k, v in info.items()
            if k.startswith("failed_"))
    print(line)
    if not args.trace:
        return
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in layer_units.items():
        print(f"layer {name:<28} {fmt(out['layers'][name]):>14} {unit}")
    traced = out["e2e_traced"]
    for name, unit in units.items():
        base, with_trace = e2e[name], traced[name]
        share = (with_trace - base) / base if base else 0.0
        print(f"overhead {name:<25} untraced {fmt(base)} traced "
              f"{fmt(with_trace)} {unit} ({share:+.1%})")
    ti = out["info_traced"]
    if "reconcile.client_p50_us" in ti:
        share = ti["reconcile.unexplained_share"]
        verdict = "ok" if abs(share) <= ti["reconcile.tolerance"] else "EXCEEDED"
        print(f"reconcile client p50 {fmt(ti['reconcile.client_p50_us'])} us"
              f" = engine {fmt(ti['reconcile.engine_p50_us'])}"
              f" + router residual {fmt(ti['reconcile.router_residual_p50_us'])}"
              f" + server residual {fmt(ti['reconcile.server_residual_p50_us'])}"
              f" + unexplained {fmt(ti['reconcile.unexplained_us'])} us"
              f" ({share:.1%} of client p50, tolerance "
              f"{ti['reconcile.tolerance']:.0%}): {verdict}")
    for name, row in out["spans"].items():
        print(f"span  {name:<20} count={int(row['count'])} "
              f"p50={fmt(row['p50_us'])} us self={fmt(row['self_ms'])} ms")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_before = loadavg()
    busy_share = cpu_busy_share()
    start = time.monotonic()
    build()
    work = BUILD / "runs" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    try:
        subprocess.run([str(DRIVER), "prepare", *common], check=True,
                       timeout=RUN_TIMEOUT_S)
        times_before = cpu_times()
        run = subprocess.run(
            [str(DRIVER), "run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - start)))
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"driver failed: {e}")
    steal_share = share(times_before, cpu_times(), 2)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"driver exited with status {run.returncode}")
    out = json.loads(lines[-1])
    for section, source in ((spec["end_to_end"], out["e2e"]),
                            (spec["per_layer"], out["layers"])):
        for m in section if source else ():
            if m["name"] not in source:
                fail(f"driver did not report {m['name']}")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment(args.seed, load_before, loadavg(), busy_share,
                      steal_share))
    report(spec, args, out)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = out["layers"] if args.trace else out["e2e"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in section}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
