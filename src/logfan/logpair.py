"""Smooth toric pairs: a fan plus the rays whose divisors form the boundary.

The boundary subfan is derived, never stored: it consists of the fan's
cones all of whose rays are boundary rays.  On smooth fans this is enough
to count boundary strata, perform admissible blow-ups, and decide the
log-modification predicate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cone import Cone, is_smooth
from .fan import (
    Fan,
    product_fan,
    star_subdivision,
    subdivision_predicates,
    support_query,
)
from .lattice import IntMatrix


@dataclass(frozen=True)
class ToricLogPair:
  """A smooth fan with a distinguished set of boundary rays."""

  fan: Fan
  boundary_rays: tuple[tuple[int, ...], ...]

  def __post_init__(self):
    object.__setattr__(self, "boundary_rays",
                       tuple(sorted(set(self.boundary_rays))))
    rays = set(self.fan.rays)
    for b in self.boundary_rays:
      if b not in rays:
        raise ValueError("boundary ray %s is not a ray of the fan" % (b,))
    for c in self.fan.max_cones:
      if not is_smooth(c):
        raise ValueError("pair requires a smooth fan; %s is singular" % (c.rays,))

  @property
  def boundary_subfan(self) -> Fan:
    return _boundary_subfan(self)


def make_pair(fan: Fan, boundary) -> ToricLogPair:
  """Validated pair; boundary is any iterable of ray tuples."""
  rays = tuple(sorted({tuple(int(x) for x in b) for b in boundary}))
  return ToricLogPair(fan, rays)


@functools.lru_cache(maxsize=2048)
def _boundary_subfan(pair: ToricLogPair) -> Fan:
  b = set(pair.boundary_rays)
  cones = [c for c in pair.fan.all_cones if set(c.rays) <= b]
  return Fan.make(cones, pair.fan.ambient_rank)


def product(p1: ToricLogPair, p2: ToricLogPair) -> ToricLogPair:
  """Product pair: product fan, boundary the union of embedded boundaries."""
  d1, d2 = p1.fan.ambient_rank, p2.fan.ambient_rank
  z1, z2 = (0,) * d1, (0,) * d2
  boundary = [tuple(r) + z2 for r in p1.boundary_rays]
  boundary += [z1 + tuple(r) for r in p2.boundary_rays]
  return make_pair(product_fan(p1.fan, p2.fan), boundary)


def boundary_strata_counts(pair: ToricLogPair) -> list:
  """Number of codimension-a boundary strata for a = 1..ambient rank.

  On a smooth fan each a-element subset of the boundary rays spanning a
  cone of the fan contributes exactly one irreducible component of the
  a-fold boundary intersection.
  """
  n = pair.fan.ambient_rank
  cones = pair.fan.all_cones
  counts = []
  for a in range(1, n + 1):
    c = 0
    for sub in itertools.combinations(pair.boundary_rays, a):
      if Cone.from_rays(list(sub), n) in cones:
        c += 1
    counts.append(c)
  return counts


def admissible_blowup(pair: ToricLogPair, tau: Cone) -> ToricLogPair:
  """Star subdivision at a cone meeting the boundary, with the new ray
  added to the boundary.

  tau must be a cone of the fan (star_subdivision checks that) with at
  least one boundary ray, so the blown-up center sits inside the boundary
  divisor.
  """
  if not set(tau.rays) & set(pair.boundary_rays):
    raise ValueError("non-admissible center: tau is disjoint from the boundary")
  new_fan = star_subdivision(pair.fan, tau)
  return make_pair(new_fan, set(pair.boundary_rays) | {tau.interior_point()})


def is_log_modification(matrix: IntMatrix, src: ToricLogPair,
                        dst: ToricLogPair) -> bool:
  """Whether the map is a subdivision pulling back the boundary exactly.

  Requires the underlying map to be a subdivision of fans, and the source
  boundary to consist of precisely those rays that land in the support of
  the target's boundary subfan.
  """
  preds = subdivision_predicates(matrix, src.fan, dst.fan)
  if not preds.is_subdivision:
    return False
  inside = support_query(dst.boundary_subfan).contains
  expected = tuple(sorted(r for r in src.fan.rays
                          if inside(matrix.apply(r))))
  return expected == src.boundary_rays
