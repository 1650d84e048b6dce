"""The reference kernel that the benchmark's timings are scaled by.

The speed of a shared host drifts by tens of percent over seconds to
minutes, for a plain Python loop as much as for logfan.  So the benchmark
times a fixed kernel, which does not use logfan, next to what it measures,
and scales each measured time to the speed at which one reference probe
takes REF_NOMINAL_S (about the median on the host the benchmark was tuned
on).  A change to logfan moves the scaled figures just as it moves the raw
ones; a change of host speed moves them much less.  The kernel is part of
the benchmark: changing it, or REF_NOMINAL_S, changes every timing.
"""

import bisect
import math
from time import perf_counter

REF_ROUNDS = 60
REF_NOMINAL_S = 0.0035


def _reference_kernel(rounds):
  """Fraction-free integer row reduction of a 6 x 6 matrix, ``rounds``
  times: small-int arithmetic, gcds, list building and calls, as in the
  lattice code of logfan.  Of the kernels tried, its speed tracked that of
  logfan's cone operations most closely over time."""
  rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(6)] for i in range(6)]
  for _ in range(rounds):
    m = [r[:] for r in rows]
    for c in range(6):
      piv = next((r for r in range(c, 6) if m[r][c]), None)
      if piv is None:
        continue
      m[c], m[piv] = m[piv], m[c]
      for r in range(6):
        if r != c and m[r][c]:
          a, b = m[c][c], m[r][c]
          g = math.gcd(a, b)
          m[r] = [x * (a // g) - y * (b // g) for x, y in zip(m[r], m[c])]
    rows[0][0] += 1
  return m


def reference_probe():
  """Seconds one reference kernel takes now: the fastest of three."""
  best = None
  for _ in range(3):
    t0 = perf_counter()
    _reference_kernel(REF_ROUNDS)
    t = perf_counter() - t0
    best = t if best is None else min(best, t)
  return best


def scale(seconds, before, after):
  """A time measured between two probes, at the nominal reference speed."""
  return seconds * 2.0 * REF_NOMINAL_S / (before + after)


def scaled_latencies(spans, probes):
  """Scale each op's (start, end) by the (time, seconds) probes on either
  side of it."""
  times = [t for t, _ in probes]
  out = []
  for t0, t1 in spans:
    before = probes[max(0, bisect.bisect_right(times, t0) - 1)][1]
    after = probes[min(len(probes) - 1, bisect.bisect_left(times, t1))][1]
    out.append(scale(t1 - t0, before, after))
  return out
