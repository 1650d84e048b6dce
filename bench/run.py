"""The logfan benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload cones --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run generates its inputs from the seed in a separate process, times
interpreter start plus ``import logfan.cli`` in fresh processes, and runs
the ops in another fresh process for ``--seconds``.  It prints a table,
then, as its last line, one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run over the
same ops plus the tracing overhead and the reach cases.  Every timing is
scaled by a reference kernel timed beside it (reference.py), so that the
drifting speed of a shared host moves the figures less.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import reference_probe, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["resolve2d", "cones", "cli"]

# set-up is timed this many times per run and reported as the median
SETUP_PROBES = 16


class BenchError(Exception):
  pass


def _python(script, *args):
  return [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]


def _stop(proc):
  if proc.poll() is None:
    proc.kill()
  proc.wait()


def _spawn_worker(args, timeout):
  """Run a worker to its end; return the seconds from its start until it
  had imported logfan.cli."""
  start = time.perf_counter()
  proc = subprocess.Popen(_python("worker.py", *args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
  try:
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
      raise BenchError("worker did not start (said %r)" % line)
    proc.stdout.read()
    code = proc.wait(timeout=timeout)
  except subprocess.TimeoutExpired:
    raise BenchError("worker ran past %.0f s" % timeout)
  finally:
    _stop(proc)
  if code != 0:
    raise BenchError("worker exited with code %d" % code)
  return ready


def _setup_probe():
  """Interpreter start plus import of logfan.cli in a fresh process, scaled
  by reference probes taken just before and after it: (scaled, raw)."""
  before = reference_probe()
  ready = _spawn_worker(["--probe"], 60)
  return scale(ready, before, reference_probe()), ready


def _worker_result(work, name, args, timeout):
  path = os.path.join(work, name + ".json")
  _spawn_worker(list(args) + ["--result", path], timeout)
  with open(path) as handle:
    return json.load(handle)


def _percentile(sorted_values, q):
  """Nearest-rank percentile of an already sorted list."""
  k = max(1, math.ceil(q * len(sorted_values)))
  return sorted_values[k - 1]


def end_to_end(setup, run):
  lat = sorted(run["latencies_s"])
  ok = run["attempted"] - run["failed"]
  return {
      "setup_s": (statistics.median(setup), "s"),
      "ops_per_s": (ok / sum(run["latencies_s"]), "1/s"),
      "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
      "op_p90_ms": (1000.0 * _percentile(lat, 0.9), "ms"),
      "ok_share": (ok / run["attempted"], "ratio"),
      "peak_rss_mb": (run["peak_rss_mb"], "MB"),
  }


def per_layer(untraced, traced, reach):
  from spans import metric_names
  out = {}
  for name, unit in metric_names():
    out[name] = (traced["layers"][name], unit)
  # tracing overhead on the very same ops, each side in a fresh process,
  # in scaled op time
  ops = traced["attempted"]
  base = sum(untraced["latencies_s"][:ops])
  slow = sum(traced["latencies_s"])
  out["trace.ops_per_s"] = (ops / slow, "1/s")
  out["trace.untraced_ops_per_s"] = (ops / base, "1/s")
  out["trace.overhead"] = (1.0 - base / slow, "ratio")
  out["trace.spans"] = (traced["spans"], "count")
  out["reach.attempted"] = (len(reach), "count")
  # a reach case counts as not finished when it ran out of time or was refused
  out["reach.dnf"] = (sum(1 for r in reach if r["outcome"] != "finished"),
                      "count")
  return out


def run_workload(workload, seed, seconds, trace):
  if not os.path.isfile(os.path.join(ROOT, "src", "logfan", "__init__.py")):
    raise BenchError("no logfan sources under %s" % os.path.join(ROOT, "src"))
  work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
  os.makedirs(work)
  try:
    subprocess.run(_python("gen.py", "--workload", workload, "--seed", seed,
                           "--out", work), cwd=ROOT, check=True, timeout=120)
    # half of the set-up probes run before the timed phase and half after,
    # so that their median spans the run
    setup = [_setup_probe() for _ in range(SETUP_PROBES // 2)]
    limit = 3 * seconds + 60
    # a traced run splits its time between an untraced and a traced phase
    untraced = _worker_result(work, "untraced", [
        "--inputs", work, "--seconds", seconds / 2 if trace else seconds],
        limit)
    runs = [untraced]
    reach = []
    if not trace:
      setup += [_setup_probe() for _ in range(SETUP_PROBES - len(setup))]
      metrics = end_to_end([scaled for scaled, _ in setup], untraced)
    else:
      # the traced phase repeats exactly the ops the untraced phase ran
      traced = _worker_result(work, "traced", [
          "--inputs", work, "--seconds", 2 * seconds,
          "--max-ops", untraced["attempted"], "--trace",
          "--spans", os.path.join(WORK, "spans-%s.tsv" % workload)], limit)
      runs.append(traced)
      if traced["attempted"] != untraced["attempted"]:
        raise BenchError("traced phase ran %d of %d ops"
                         % (traced["attempted"], untraced["attempted"]))
      reach = _worker_result(work, "reach", ["--inputs", work, "--reach"],
                             limit)["reach"]
      metrics = per_layer(untraced, traced, reach)
  finally:
    shutil.rmtree(work, ignore_errors=True)
  attempted = sum(r["attempted"] for r in runs)
  failed = sum(r["failed"] for r in runs)
  report = {
      "workload": workload, "seed": seed, "runs": runs, "setup": setup,
      "reach": reach, "absent": runs[-1].get("absent", []),
  }
  result = {
      "correct": failed == 0,
      "attempted": attempted,
      "failed": failed,
      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
  }
  return report, result


def print_report(report, result):
  w = report["workload"]
  first = report["runs"][0]
  lat = first["latencies_s"]
  beyond = len(lat) - max(1, math.ceil(0.9 * len(lat)))
  print("workload %s, seed %d: %d ops in %.2f s, %d failed, "
        "%d samples, %d beyond p90, slowest op %.3f s"
        % (w, report["seed"], first["attempted"], first["wall_s"],
           first["failed"], len(lat), beyond, max(lat)))
  print("  fail_share %.6f (%d of %d)" % (
      first["failed"] / first["attempted"], first["failed"],
      first["attempted"]))
  raw = sorted(first["raw_latencies_s"])
  probes = sorted(first["probes_s"])
  print("  unscaled ops_per_s %.4f (over the wall time of the loop), "
        "op_p50_ms %.4f, op_p90_ms %.4f; %d reference probes, "
        "median %.3f ms (nominal %.3f ms), slowest/fastest %.2f"
        % ((first["attempted"] - first["failed"]) / first["wall_s"],
           1000.0 * statistics.median(raw), 1000.0 * _percentile(raw, 0.9),
           len(probes), 1000.0 * statistics.median(probes),
           1000.0 * first["ref_nominal_s"], probes[-1] / probes[0]))
  print("  setup probes: %d, scaled %s s, unscaled %s s" % (
      len(report["setup"]),
      " ".join("%.4f" % scaled for scaled, _ in report["setup"]),
      " ".join("%.4f" % raw for _, raw in report["setup"])))
  for run in report["runs"]:
    print("  digest of the first %d answers: %s"
          % (run["digest_ops"], run["digest"]))
    for failure in run["failures"]:
      print("  FAILED %s" % failure)
  for r in report["reach"]:
    print("  reach %s: %s after %.2f s" % (r["name"], r["outcome"],
                                          r["seconds"]))
  for name in report["absent"]:
    print("  absent from the program: %s" % name)
  for name, m in result["metrics"].items():
    print("  %-48s %16.6f %s" % (name, m["value"], m["unit"]))


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--workload", required=True,
                      choices=WORKLOADS + ["all"])
  parser.add_argument("--seed", type=int, default=1)
  parser.add_argument("--seconds", type=int, default=25)
  parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
  args = parser.parse_args(argv)
  sys.path.insert(0, HERE)
  names = WORKLOADS if args.workload == "all" else [args.workload]
  try:
    for name in names:
      report, result = run_workload(name, args.seed, args.seconds,
                                    bool(args.trace))
      print_report(report, result)
      sys.stdout.flush()
      print(json.dumps(result))
  except (BenchError, OSError, subprocess.SubprocessError) as exc:
    print("bench: %s" % exc, file=sys.stderr)
    return 2
  return 0


if __name__ == "__main__":
  sys.exit(main())
