"""Closure-based references for locating cones in a fan and for pair strata.

Each function here answers its question the way logfan once did: build the
face closure of the fan, every face of every maximal cone through
Cone.from_rays, and scan or filter it.  The tests compare logfan's lookups
from the maximal cones against these.
"""

import itertools

from logfan.cone import Cone, faces
from logfan.fan import Fan


def reference_all_cones(fan: Fan) -> frozenset:
  """Every face of every maximal cone."""
  out = set()
  for c in fan.max_cones:
    for f in faces(c):
      out.add(f)
  return frozenset(out)


def reference_cones_at(fan: Fan, x) -> list:
  """The closure cones whose relative interior holds x, sorted by
  (dim, rays)."""
  return [c for c in sorted(reference_all_cones(fan),
                            key=lambda c: (c.dim, c.rays))
          if c.contains_relative_interior(list(x))]


def reference_cone_at(fan: Fan, center):
  """The first cone in (dim, rays) order whose relative interior holds the
  center, or None."""
  for cone in sorted(reference_all_cones(fan), key=lambda c: (c.dim, c.rays)):
    if cone.contains_relative_interior(list(center)):
      return cone
  return None


def reference_is_cone_of(fan: Fan, tau: Cone) -> bool:
  return tau in reference_all_cones(fan)


def reference_boundary_subfan(pair) -> Fan:
  """The maximal closure cones all of whose rays are boundary rays."""
  b = set(pair.boundary_rays)
  cones = [c for c in reference_all_cones(pair.fan) if set(c.rays) <= b]
  return Fan.make(cones, pair.fan.ambient_rank)


def reference_strata_counts(pair) -> list:
  """For a = 1..rank, the a-subsets of the boundary rays whose cone is a
  cone of the fan."""
  n = pair.fan.ambient_rank
  cones = reference_all_cones(pair.fan)
  counts = []
  for a in range(1, n + 1):
    c = 0
    for sub in itertools.combinations(pair.boundary_rays, a):
      if Cone.from_rays(list(sub), n) in cones:
        c += 1
    counts.append(c)
  return counts
