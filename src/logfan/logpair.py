"""Smooth toric pairs: a fan plus the rays whose divisors form the boundary.

The boundary subfan and the boundary strata are read off the boundary rays
of each maximal cone, never stored: the faces of a smooth cone are the
cones on subsets of its rays.  That is enough to count boundary strata,
perform admissible blow-ups, and decide the log-modification predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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
    """The fan of the faces of the maximal cones on their boundary rays."""
    b = set(self.boundary_rays)
    n = self.fan.ambient_rank
    return Fan.make([Cone.from_rays([r for r in c.rays if r in b], n)
                     for c in self.fan.max_cones], n)


def make_pair(fan: Fan, boundary) -> ToricLogPair:
  """Validated pair; boundary is any iterable of ray tuples."""
  rays = tuple(sorted({tuple(int(x) for x in b) for b in boundary}))
  return ToricLogPair(fan, rays)


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
  a-fold boundary intersection: these subsets are the distinct subsets of
  each maximal cone's boundary rays.  They are counted, not listed
  (_subset_counts), so a cone with many boundary rays costs no more than
  its binomial coefficients.

  Precondition: the pair's fan is a fan (see validate); otherwise a
  boundary ray inside a cone but not one of its rays is missed.
  """
  b = set(pair.boundary_rays)
  return _subset_counts([frozenset(r for r in c.rays if r in b)
                         for c in pair.fan.max_cones],
                        pair.fan.ambient_rank)


def _subset_counts(sets, n: int) -> list:
  """For a = 1..n, the number of distinct a-element sets that lie inside
  some set of sets.

  The sets are swept largest first.  The a-subsets of s met for the first
  time are those of s less those inside s & t for an earlier t, which are
  counted the same way; only an earlier t that meets s has such subsets.
  A set inside an earlier one adds nothing and is skipped, so every s & t
  passed down is a proper subset of s, and the recursion is at most as
  deep as the largest set is large.
  """
  out = [0] * n
  swept = []
  holding = {}  # element -> indices into swept of the sets holding it
  for s in sorted(set(sets), key=len, reverse=True):
    earlier = {j for x in s for j in holding.get(x, ())}
    if not s or any(s <= swept[j] for j in earlier):
      continue
    inner = _subset_counts([s & swept[j] for j in earlier], n)
    for a in range(n):
      out[a] += comb(len(s), a + 1) - inner[a]
    for x in s:
      holding.setdefault(x, []).append(len(swept))
    swept.append(s)
  return out


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
