"""Closed-loop runner for one benchmark phase, in a fresh interpreter.

The first thing the process does is import ``logfan.cli``; it then prints
``ready`` so that the parent can time interpreter start plus import.  With
``--probe`` it stops there.  Otherwise it reads the generated inputs and
runs their ops one after another, one client, each op under a time limit,
checks every answer, and writes a JSON result file.

    python3 bench/worker.py --inputs DIR --seconds 25 --result FILE
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import logfan.cli  # noqa: E402  (timed as set-up by the parent)

sys.stdout.write("ready\n")
sys.stdout.flush()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from time import perf_counter  # noqa: E402

from reference import REF_NOMINAL_S, reference_probe, scaled_latencies  # noqa: E402

# The API is looked up through the modules at call time, so that the spans
# installed by a traced run see the calls made from here.
lf = logfan

# Every op, traced or not, must finish within this many seconds.  The
# slowest finishing op of logfan 0.1.0 takes under 1.5 s; the reach
# cases take over 30 s.  Both sides stay far from the limit, so the count of
# ops that do not finish repeats exactly.
LIMIT_S = 6.0

# The digest covers the answers of this many ops from the start of the
# input, fewer than logfan 0.1.0 completes in a 25 s run.  The peak resident
# set is read when they are done, so that it does not depend on how many ops
# a faster or slower run gets through.
DIGEST_OPS = {"resolve2d": 50, "cones": 300, "cli": 400}


# The loop times the reference kernel at least this often (see
# reference.py), and scales every op's latency by the probes on either side.
PROBE_EVERY_S = 0.25


class TimeLimit(BaseException):
  """Raised in the op when its time limit passes.

  A BaseException, so that no handler in the program can swallow it."""


class WrongAnswer(Exception):
  pass


def _peak_rss_mb():
  return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _on_alarm(signum, frame):
  raise TimeLimit()


def expect(ok, message, *details):
  if not ok:
    raise WrongAnswer(message % details if details else message)


def clear_caches():
  """Empty every lru_cache in the program, as a new process would have."""
  for name, module in list(sys.modules.items()):
    if name == "logfan" or name.startswith("logfan."):
      for value in list(vars(module).values()):
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
          clear()


# -------------------------------------------------------------- resolve2d

IDENT2 = lf.IntMatrix.identity(2)


def _fan2(cones):
  return lf.Fan.make([lf.Cone.from_rays(c, 2) for c in cones], 2)


def _insert_ray(fan, ray):
  """Split the 2-cone whose relative interior holds the ray."""
  out = []
  for c in fan.max_cones:
    if c.dim == 2 and c.contains(ray) and ray not in c.rays:
      a, b = c.rays
      out.append(lf.Cone.from_rays([a, ray], 2))
      out.append(lf.Cone.from_rays([ray, b], 2))
    else:
      out.append(c)
  return lf.Fan.make(out, 2)


def _flags(fan_from, fan_to):
  p = lf.subdivision_predicates(IDENT2, fan_from, fan_to)
  return p.is_partial_subdivision, p.is_subdivision


def run_resolve(op, state):
  fan = _fan2(op["fan"])
  resolved, steps = lf.resolve_2d(fan)
  expect(all(lf.is_smooth(c) for c in resolved.max_cones), "resolution not smooth")
  expect(len(steps) == op["steps"], "%d rays inserted, %d expected",
         len(steps), op["steps"])
  expect(_flags(resolved, fan) == (True, True), "resolution not a subdivision")
  cur = fan
  for ray in steps:
    nxt = _insert_ray(cur, ray)
    expect(_flags(nxt, cur) == (True, True), "step %s not a subdivision", ray)
    cur = nxt
  expect(cur == resolved, "steps do not rebuild the resolution")
  if op["completion"] is not None:
    expect(_flags(fan, _fan2(op["completion"])) == (True, False),
           "fan into its completion: want partial yes, full no")
  return [c.rays for c in resolved.max_cones], steps


# ------------------------------------------------------------------ cones

def run_cone(op, state):
  step = op["step"]
  if step == "from_rays":
    case = op["input"]
    state.pop("faces", None)
    state["case"] = case
    cone = lf.Cone.from_rays(case["gens"], case["rank"])
    state["cone"] = cone
    expect([list(r) for r in cone.rays] == case["rays"], "extreme rays differ")
    expect(len(cone.facet_normals) == case["facets"], "%d facets, %d expected",
           len(cone.facet_normals), case["facets"])
    return cone.rays
  case, cone = state["case"], state["cone"]
  d = case["rank"]
  if step == "faces":
    fs = lf.faces(cone)
    state["faces"] = fs
    by_dim = [0] * (d + 1)
    for f in fs:
      by_dim[f.dim] += 1
    expect(sum((-1) ** k * n for k, n in enumerate(by_dim)) == 0,
           "Euler relation fails")
    expect(by_dim == case["faces_by_dim"], "faces by dimension %s, want %s",
           by_dim, case["faces_by_dim"])
    return [f.rays for f in fs]
  if step == "hilbert_basis":
    hb = lf.hilbert_basis(cone)
    expect(all(r in hb for r in cone.rays), "a ray is not in the basis")
    expect(not any(cone.contains(tuple(a - b for a, b in zip(h, g)))
                   for h in hb for g in hb if h != g),
           "a basis element is reducible by another")
    expect(sorted(list(h) for h in hb) == case["hilbert"],
           "basis differs from the lattice points at height one")
    return hb
  if step == "dual_cone":
    dual = lf.dual_cone(cone)
    expect(len(dual.rays) == case["facets"], "dual has %d rays", len(dual.rays))
    expect(lf.dual_cone(dual) == cone, "dual of the dual differs")
    return dual.rays
  if step == "from_inequalities":
    again = lf.Cone.from_inequalities(cone.facet_normals, cone.span_normals, d)
    expect(again == cone, "cone from its facets differs")
    return again.rays
  if step == "is_face_of":
    expect(all(lf.cone.is_face_of(f, cone) for f in state["faces"]),
           "a returned face is not a face")
    expect(not lf.cone.is_face_of(lf.Cone.from_rays([case["interior"]], d), cone),
           "an interior ray is a face")
    return len(state["faces"])
  if step == "membership":
    monoid = lf.AffineMonoid.make(case["gens"], d)
    got = ([lf.membership(monoid, v) for v in case["members"]]
           + [lf.membership(monoid, v) for v in case["nonmembers"]])
    want = [True] * len(case["members"]) + [False] * len(case["nonmembers"])
    expect(got == want, "membership %s, want %s", got, want)
    return got
  if step == "saturation":
    sat = lf.saturation(lf.AffineMonoid.make(case["gens"], d))
    expect(sorted(list(g) for g in sat.gens) == case["hilbert"],
           "saturation differs from the Hilbert basis")
    return sat.gens
  raise ValueError("unknown cone step %r" % step)


# -------------------------------------------------------------------- cli

def run_cli(op, state):
  argv = [a.replace("{dir}", state["dir"]) for a in op["argv"]]
  out, err = io.StringIO(), io.StringIO()
  with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = lf.cli.execute(argv)
  return code, out.getvalue(), err.getvalue()


def check_cli(op, state, answer):
  """Check a command's exit code, output and written file, outside the
  op's time.  Returns what goes into the digest."""
  code, text, err = answer
  d = state["dir"]
  expect(code == op["code"], "exit %d, want %d: %s", code, op["code"],
         err.strip()[:200])
  lines = text.splitlines()
  for line in op.get("lines", ()):
    expect(line in lines, "missing output line %r", line)
  written = ""
  if "writes" in op:
    with open(op["writes"].replace("{dir}", d), encoding="utf-8") as handle:
      written = handle.read()
    doc = lf.cli.parse_document(written)
    expect(lf.cli.serialize_document(doc) == written,
           "written document round trip")
    cones = sorted(sorted(list(r) for r in c) for c in doc.max_cones)
    expect(cones == op["cones"], "written cones differ")
    if op["boundary"] is not None:
      expect(sorted(list(r) for r in doc.boundary_rays) == op["boundary"],
             "written boundary differs")
  if "svg" in op:
    with open(op["svg"].replace("{dir}", d), encoding="utf-8") as handle:
      written = handle.read()
    expect(written.startswith("<svg"), "not an svg document")
    expect(written.count("<line ") == op["svg_rays"], "svg ray count")
    expect(written.count("<path ") == op["svg_wedges"], "svg wedge count")
  return code, text, written


RUNNERS = {"resolve": run_resolve, "cone": run_cone, "cli": run_cli}


def run_loop(workload, ops, state, seconds, max_ops, tracer):
  """The closed loop.  Returns the per-op record: raw and scaled latencies,
  and the wall time spent in the loop outside the reference probes."""
  digest = hashlib.sha256()
  digest_ops = min(DIGEST_OPS[workload], len(ops))
  spans, failures = [], []
  attempted = 0
  fresh_each_op = workload == "cli"
  peak_rss_mb = None
  signal.signal(signal.SIGALRM, _on_alarm)
  probes = [(perf_counter(), reference_probe())]
  probe_s = 0.0
  start = perf_counter()
  while attempted < max_ops and perf_counter() - start < seconds:
    i = attempted % len(ops)
    if fresh_each_op or (i == 0 and attempted):
      clear_caches()  # a new CLI process, or a new session per input pass
    op = ops[i]
    if tracer is not None:
      tracer.op = attempted
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
      answer = RUNNERS[op["kind"]](op, state)
      error = None
    except TimeLimit:
      error = "did not finish within %.0f s" % LIMIT_S
    except WrongAnswer as exc:
      error = "wrong answer: %s" % exc
    except Exception as exc:  # an unexpected rejection is a failed op
      error = "%s: %s" % (type(exc).__name__, exc)
    finally:
      signal.setitimer(signal.ITIMER_REAL, 0)
      t1 = perf_counter()
      if tracer is not None:
        tracer.op = -1
    if error is None and op["kind"] == "cli":
      try:
        answer = check_cli(op, state, answer)
      except WrongAnswer as exc:
        error = "wrong answer: %s" % exc
      except Exception as exc:  # a written file that does not parse
        error = "%s: %s" % (type(exc).__name__, exc)
    attempted += 1
    spans.append((t0, t1))
    if error is None:
      if attempted <= digest_ops:
        digest.update(repr(answer).encode())
    else:
      failures.append("op %d (%s): %s" % (i, _label(op), error))
    if attempted == digest_ops:
      peak_rss_mb = _peak_rss_mb()
    if perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
      p0 = perf_counter()
      probes.append((p0, reference_probe()))
      probe_s += perf_counter() - p0
  wall = perf_counter() - start - probe_s
  probes.append((perf_counter(), reference_probe()))
  return {
      "attempted": attempted,
      "failed": len(failures),
      "failures": failures[:20],
      "latencies_s": scaled_latencies(spans, probes),
      "raw_latencies_s": [t1 - t0 for t0, t1 in spans],
      "wall_s": wall,
      "probes_s": [d for _, d in probes],
      "ref_nominal_s": REF_NOMINAL_S,
      "digest": digest.hexdigest()[:16],
      "digest_ops": min(digest_ops, attempted),
      "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
  }


def _label(op):
  if op["kind"] == "cone":
    return "cone %s" % op["step"]
  if op["kind"] == "cli":
    return "logfan %s" % op["argv"][0]
  return op["kind"]


def run_reach(cases, d):
  """Run each reach case once; report whether it finished in the limit."""
  signal.signal(signal.SIGALRM, _on_alarm)
  out = []
  for case in cases:
    clear_caches()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
      if "argv" in case:
        with contextlib.redirect_stdout(io.StringIO()), \
             contextlib.redirect_stderr(io.StringIO()):
          code = lf.cli.execute([a.replace("{dir}", d) for a in case["argv"]])
        outcome = "finished" if code in (0, 1) else "rejected, exit %d" % code
      else:
        cone = lf.Cone.from_rays(case["rays"], len(case["rays"][0]))
        getattr(lf, case["step"])(cone)
        outcome = "finished"
    except TimeLimit:
      outcome = "did not finish within %.0f s" % LIMIT_S
    except Exception as exc:  # a later limit may refuse the input
      outcome = "rejected, %s: %s" % (type(exc).__name__, exc)
    finally:
      signal.setitimer(signal.ITIMER_REAL, 0)
    out.append({"name": case["name"], "outcome": outcome,
                "seconds": perf_counter() - t0})
  return out


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--probe", action="store_true",
                      help="import the program and exit")
  parser.add_argument("--inputs", help="directory written by gen.py")
  parser.add_argument("--seconds", type=float, default=25.0)
  parser.add_argument("--max-ops", type=int, default=1 << 62)
  parser.add_argument("--trace", action="store_true")
  parser.add_argument("--reach", action="store_true",
                      help="run the reach cases instead of the workload")
  parser.add_argument("--spans", help="file for the spans of a traced run")
  parser.add_argument("--result", help="file for the JSON result")
  args = parser.parse_args(argv)
  if args.probe:
    return
  with open(os.path.join(args.inputs, "inputs.json")) as handle:
    inputs = json.load(handle)
  if args.reach:
    result = {"reach": run_reach(inputs["reach"], args.inputs)}
  else:
    tracer = None
    if args.trace:
      from spans import Tracer
      tracer = Tracer()
      tracer.install()
    state = {"dir": args.inputs}
    result = run_loop(inputs["workload"], inputs["ops"], state, args.seconds,
                      args.max_ops, tracer)
    if tracer is not None:
      result["layers"] = tracer.metrics()
      result["absent"] = tracer.absent
      result["spans"] = len(tracer.starts)
      if args.spans:
        tracer.write(args.spans)
  with open(args.result, "w") as handle:
    json.dump(result, handle)


if __name__ == "__main__":
  main()
