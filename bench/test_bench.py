"""Small-size self-test of the benchmark runner (about a minute).

    python3 -m pytest -q bench/test_bench.py

Every workload must run with zero failed ops; only the named reach cases
of the traced cones run may fail to finish.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
  SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
  return subprocess.run([sys.executable, os.path.join("bench", "run.py")]
                        + [str(a) for a in args], cwd=cwd,
                        capture_output=True, text=True, timeout=300)


def last_json(proc):
  assert proc.returncode == 0, proc.stderr
  return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_has_no_failures(workload):
  result = last_json(bench("--workload", workload, "--seed", 3,
                           "--seconds", 2, "--trace", 0))
  assert result["correct"] and result["failed"] == 0
  assert result["attempted"] >= 1
  want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
  got = {k: v["unit"] for k, v in result["metrics"].items()}
  assert got == want
  assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
  proc = bench("--workload", "cones", "--seed", 3, "--seconds", 2,
               "--trace", 1)
  result = last_json(proc)
  assert result["correct"] and result["failed"] == 0
  want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
  got = {k: v["unit"] for k, v in result["metrics"].items()}
  assert got == want
  metrics = {k: v["value"] for k, v in result["metrics"].items()}
  assert metrics["cone.hilbert_basis.calls"] > 0
  assert metrics["cone.faces.out"] > 0
  assert metrics["reach.attempted"] == 3
  assert 0 <= metrics["reach.dnf"] <= 3


def test_latencies_scale_by_the_probes_on_either_side():
  sys.path.insert(0, HERE)
  from reference import REF_NOMINAL_S, scaled_latencies
  probes = [(0.0, REF_NOMINAL_S), (1.0, 2 * REF_NOMINAL_S),
            (2.0, 3 * REF_NOMINAL_S)]
  got = scaled_latencies([(0.2, 0.8), (1.1, 1.5), (2.5, 2.6)], probes)
  # a slower host (longer probes) scales a latency down; past the last
  # probe, it stands on both sides
  assert got == pytest.approx([0.6 / 1.5, 0.4 / 2.5, 0.1 / 3.0])


def test_inputs_depend_only_on_the_seed(tmp_path):
  texts = []
  for seed, name in ((5, "a"), (5, "b"), (6, "c")):
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", "cli", "--seed", str(seed),
                    "--out", str(tmp_path / name)], check=True)
    texts.append((tmp_path / name / "inputs.json").read_text())
  assert texts[0] == texts[1]
  assert texts[0] != texts[2]


def test_refuses_to_run_without_the_program(tmp_path):
  shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
  for path in SPEC["paths"]:
    shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                    ignore=shutil.ignore_patterns("__pycache__"))
  proc = bench("--workload", "cones", "--seed", 1, "--seconds", 1,
               "--trace", 0, cwd=tmp_path)
  assert proc.returncode != 0
  assert proc.stdout.strip() == ""
