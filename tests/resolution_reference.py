"""Test-only reference code for the rank-2 resolution of logfan.fan.

The library decides smoothness by one Hermite pass over the transposed ray
matrix and resolves a rank-2 fan from one Hirzebruch-Jung chain per
singular cone.  This module keeps the earlier code as a differential
oracle: smoothness by a rank check plus the Smith normal form of the ray
matrix, smoothness by the gcd of the maximal minors, the stellar insertion
of one ray, and a resolution loop that inserts one ray at a time, takes a
fresh Hilbert basis each time and re-tests every maximal cone after each
insertion.  Its Hilbert bases are cone_reference's box walk, which shares
nothing with the chain.  It keeps the completion that restarts after every
inserted ray and drops the old ray cones through Fan.make's filter, and it
draws the singular rank-2 fans of acceptance criterion 11.
"""

import functools
import itertools
import math

from logfan.cone import Cone
from logfan.fan import Fan, complete_2d
from logfan.lattice import IntMatrix, _adjugate, snf

from cone_reference import _rank_small, reference_hilbert_basis


def reference_is_smooth(sigma: Cone) -> bool:
  """Whether the rays extend to a basis of the ambient lattice.

  True iff the rays are linearly independent and the Smith form of the ray
  matrix has all invariant factors 1.  The zero cone is smooth.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("smoothness is defined here for strictly convex cones")
  if sigma.is_zero:
    return True
  rows = [list(r) for r in sigma.rays]
  if _rank_small(rows, sigma.ambient_rank) != len(rows):
    return False
  D, _, _ = snf(IntMatrix.from_rows(rows))
  return all(D.entry(i, i) == 1 for i in range(len(rows)))


def reference_is_smooth_by_minors(sigma: Cone) -> bool:
  """Whether the rays extend to a basis of the ambient lattice.

  For k rays in rank d, the gcd of the k x k minors of the ray matrix (its
  k-th determinantal divisor) is the product of its invariant factors, and
  0 when the rays are dependent.  So the rays extend to a basis exactly when
  that gcd is 1; the loop stops at the first partial gcd of 1.  More rays
  than the rank leave no minor, gcd 0.  The zero cone has one empty minor,
  of determinant 1, and is smooth.  The loop takes C(d, k) minors.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("smoothness is defined here for strictly convex cones")
  rays = sigma.rays
  g = 0
  for cols in itertools.combinations(range(sigma.ambient_rank), len(rays)):
    g = math.gcd(g, _adjugate([[r[c] for c in cols] for r in rays])[1])
    if g == 1:
      return True
  return False


def insert_ray_2d(fan: Fan, ray) -> Fan:
  """Stellar insertion of a primitive ray into a rank-2 fan: every
  two-dimensional cone whose relative interior meets the ray is split."""
  out = []
  for c in fan.max_cones:
    if c.dim == 2 and c.contains(ray) and ray not in c.rays:
      a, b = c.rays
      out.append(Cone.from_rays([a, ray], 2))
      out.append(Cone.from_rays([ray, b], 2))
    else:
      out.append(c)
  return Fan.make(out, 2)


def reference_resolve_2d(fan: Fan) -> tuple[Fan, list]:
  """The resolution loop that re-tests every maximal cone after each
  inserted ray, and takes the first singular 2-cone in max_cones order."""
  if fan.ambient_rank != 2:
    raise ValueError("resolution rule is specific to rank 2")
  cur = fan
  steps = []
  while True:
    bad = [c for c in cur.max_cones
           if c.dim == 2 and not reference_is_smooth(c)]
    if not bad:
      return cur, steps
    c = bad[0]
    extra = sorted(h for h in reference_hilbert_basis(c) if h not in c.rays)
    if not extra:
      raise AssertionError("singular rank-2 cone with no interior Hilbert element")
    cur = insert_ray_2d(cur, extra[0])
    steps.append(extra[0])


def _cross(a, b) -> int:
  return a[0] * b[1] - a[1] * b[0]


def _ccw_cmp(a, b):
  # angle class 0 is the open upper half plane plus the positive x-axis
  ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
  hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
  if a == b:
    return 0
  if ha != hb:
    return -1 if ha < hb else 1
  cr = _cross(a, b)
  if cr == 0:
    return 0
  return -1 if cr > 0 else 1


def reference_complete_2d(fan: Fan) -> Fan:
  """The completion that inserts one ray at a time, re-sorts and restarts
  from the first gap, then closes every uncovered gap with one cone and
  filters the result through Fan.make."""
  if fan.ambient_rank != 2:
    raise ValueError("completion rule is specific to rank 2")
  rays = [tuple(r) for r in fan.rays]
  if not rays:
    rays = [(1, 0)]
  two_cones = [c for c in fan.max_cones if c.dim == 2]

  def sort_ccw(rs):
    return sorted(rs, key=functools.cmp_to_key(_ccw_cmp))

  def sector_covered(a, b):
    return _cross(a, b) > 0 and any(set((a, b)) == set(c.rays)
                                    for c in two_cones)

  while True:
    rays = sort_ccw(rays)
    inserted = False
    for i, a in enumerate(rays):
      b = rays[(i + 1) % len(rays)]
      if sector_covered(a, b):
        continue
      cr = _cross(a, b)
      if len(rays) == 1 or cr < 0:
        rays.append((-a[0], -a[1]))
        inserted = True
        break
      if cr == 0:
        rays.append((-a[1], a[0]))
        inserted = True
        break
    if not inserted:
      break
  rays = sort_ccw(rays)
  out = list(fan.max_cones)
  for i, a in enumerate(rays):
    b = rays[(i + 1) % len(rays)]
    if not sector_covered(a, b):
      out.append(Cone.from_rays([a, b], 2))
  return Fan.make(out, 2)


def criterion_11_fans(rng, count):
  """Singular rank-2 fans drawn as acceptance criterion 11 draws them:
  two cones on four random primitive rays, every other fan completed."""
  out = []
  while len(out) < count:
    rays = set()
    while len(rays) < 4:
      v = (rng.randint(-9, 9), rng.randint(-9, 9))
      if v == (0, 0):
        continue
      g = math.gcd(abs(v[0]), abs(v[1]))
      rays.add((v[0] // g, v[1] // g))
    ordered = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    cones = [Cone.from_rays(ordered[:2], 2), Cone.from_rays(ordered[2:], 2)]
    if any(not c.is_strictly_convex for c in cones):
      continue
    fan = Fan.make(cones, 2)
    if len(fan.max_cones) != 2:
      continue
    if len(out) % 2 == 0:
      try:
        fan = complete_2d(fan)
      except ValueError:
        continue
    if all(reference_is_smooth(c) for c in fan.max_cones):
      continue
    out.append(fan)
  return out
