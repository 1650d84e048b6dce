"""Run the benchmark over several seeds and record the results as JSON.

    python3 bench/record.py --seeds 1-10 --out bench/results/BENCH_<n>.json

For every workload this makes one untraced run per seed and one traced run
on the first seed, then writes each run's metrics, the median and quartiles
of every end-to-end metric, their spread (quartile distance over median)
and the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
  if "-" in text:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))
  return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
  proc = subprocess.run(
      [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
      cwd=ROOT, capture_output=True, text=True, timeout=600)
  if proc.returncode != 0:
    raise SystemExit("run.py failed on %s seed %d:\n%s"
                     % (workload, seed, proc.stderr))
  lines = proc.stdout.strip().splitlines()
  result = json.loads(lines[-1])
  result["digests"] = [l.split(": ")[-1] for l in lines if "digest" in l]
  result["seed"] = seed
  return result


def summarize(runs):
  out = {}
  for name in runs[0]["metrics"]:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                 "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / med if med else 0.0}
  return out


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--seeds", default="1-10")
  parser.add_argument("--label", default="", help="what was measured")
  parser.add_argument("--out", required=True)
  args = parser.parse_args(argv)
  with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    spec = json.load(handle)
  seconds = spec["run_seconds"]
  seeds = _seeds(args.seeds)
  record = {"label": args.label, "seconds": seconds, "seeds": seeds,
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "workloads": {}}
  for workload in [w["name"] for w in spec["workloads"]]:
    runs = []
    for seed in seeds:
      runs.append(run_once(workload, seed, seconds, 0))
      print("%s seed %d: %s" % (workload, seed, " ".join(
          "%s=%.5g" % (k, v["value"]) for k, v in runs[-1]["metrics"].items())),
          flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
      print("  %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.4f"
            % (name, s["median"], s["q1"], s["q3"], s["spread"]), flush=True)
    traced = run_once(workload, seeds[0], seconds, 1)
    record["workloads"][workload] = {"runs": runs, "summary": summary,
                                     "traced": traced}
  with open(args.out, "w") as handle:
    json.dump(record, handle, indent=1)
    handle.write("\n")


if __name__ == "__main__":
  main()
