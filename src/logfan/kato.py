"""Chart-level smoothness criteria over a field of given characteristic.

Everything here reduces to the induced map on group completions: its
kernel and cokernel, computed in coordinates on the groups themselves
rather than on the ambient lattices, decide smoothness and etaleness of
a chart, and the free rank of the cokernel gives the rank of the
relative differentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

from .lattice import cokernel
from .monoid import AffineMonoid, MonoidHom, _gp_map, nth_root


# The first 13 primes.  As Miller-Rabin witnesses they decide primality
# exactly below MAX_PRIME_TEST, the least strong pseudoprime to all of them
# (Sorenson & Webster 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3317044064679887385961981


def _is_prime(n: int) -> bool:
  """Whether n is prime, by Miller-Rabin over the fixed _WITNESSES.

  Below MAX_PRIME_TEST no composite passes every witness, so the answer is
  exact and nothing is random; the work is a few modular powers.

  Raises:
    ValueError: if n is at least MAX_PRIME_TEST.
  """
  if n >= MAX_PRIME_TEST:
    raise ValueError("primality is decided exactly below %d only, got %d"
                     % (MAX_PRIME_TEST, n))
  if n < 2:
    return False
  for a in _WITNESSES:
    if n % a == 0:
      return n == a
  d, s = n - 1, 0
  while d % 2 == 0:
    d //= 2
    s += 1
  for a in _WITNESSES:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
      continue
    for _ in range(s - 1):
      x = x * x % n
      if x == n - 1:
        break
    else:
      return False
  return True


@dataclass(frozen=True)
class CharParam:
  """Characteristic of the base field: zero or a prime."""

  p: int

  def __post_init__(self):
    if self.p != 0 and not _is_prime(self.p):
      raise ValueError("characteristic must be 0 or prime, got %d" % self.p)

  def divides(self, n: int) -> bool:
    return self.p != 0 and n % self.p == 0


def chart_smoothness(theta: MonoidHom, char: CharParam) -> SimpleNamespace:
  """Log smoothness and log etaleness of the chart presented by theta.

  Smooth: the group map is injective and every finite invariant factor
  of its cokernel is invertible in the given characteristic.  Etale
  additionally needs the cokernel to be finite.
  """
  n = _gp_map(theta)
  coker = cokernel(n)
  injective = n.rows - coker.free_rank == n.cols  # rank(n) == n.cols
  torsion_ok = all(not char.divides(f) for f in coker.invariant_factors)
  smooth = injective and torsion_ok
  return SimpleNamespace(
      log_smooth=smooth,
      log_etale=smooth and coker.free_rank == 0,
  )


def omega1_rank(theta: MonoidHom) -> int:
  """Rank of the relative log differentials: free rank of the group cokernel."""
  return cokernel(_gp_map(theta)).free_rank


def omega_rank_pair(pair, degree: int) -> SimpleNamespace:
  """Rank data of log differential forms of the given degree on a pair.

  The sheaf of degree-k log forms on a smooth pair of dimension n is free
  of rank binomial(n, k).  Alongside it we report how many independent
  dlog factors appear at a deepest boundary stratum: the largest
  dimension of a cone in the boundary subfan.
  """
  if degree < 0:
    raise ValueError("form degree must be nonnegative")
  n = pair.fan.ambient_rank
  deepest = max(c.dim for c in pair.boundary_subfan.max_cones)
  return SimpleNamespace(
      rank=math.comb(n, degree),
      dlog_count_at_deepest_stratum=deepest,
  )


def kummer_cover_chart(p: AffineMonoid, n: int, char: CharParam) -> SimpleNamespace:
  """The degree-n root cover chart of a saturated monoid.

  Returns the inclusion of p into its monoid of n-th roots together with
  the two predicates that matter for it: the inclusion is always Kummer,
  and it is log etale exactly when n is invertible in the characteristic.
  """
  root, refinement = nth_root(p, n)
  hom = MonoidHom(p, root, refinement)
  sm = chart_smoothness(hom, char)
  return SimpleNamespace(hom=hom, is_kummer=True, log_etale=sm.log_etale)
