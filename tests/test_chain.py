"""Hilbert bases of 2-dimensional cones by their Hirzebruch-Jung chain.

hilbert_basis answers a 2-dimensional cone, in any ambient rank, from its
chain (_chain), and every other cone by enumerating the parallelepipeds of
a triangulation (_enumerated_basis).  On seeded strictly convex 2-cones of
ranks 2 to 4 the chain must equal the enumeration wherever the enumeration
answers, and answer every cone, those past the enumeration's index budget
included; every chain's links are also checked on their own.  Inputs whose
index is huge but whose chain is short are answered at once, the element
budget holds at its edge, a 2-cone takes no adjugate and no
parallelepiped, and the chain's two guards catch a malformed cone.
"""

import itertools
import math
import random
import time

import pytest

from logfan import cone as cone_module
from logfan.cone import (
    MAX_HILBERT_INDEX,
    Cone,
    _chain,
    _cone_from_gens,
    _enumerated_basis,
    hilbert_basis,
)
from logfan.fan import Fan, resolve_2d


def _two_cones(rng, count):
  """count strictly convex 2-cones of ranks 2 to 4, their entries in
  [-300, 300], drawn at scales from 3 to 300 so that the enumeration
  answers most and refuses some."""
  out = []
  while len(out) < count:
    d = rng.randint(2, 4)
    m = rng.choice((3, 10, 30, 100, 300))
    sigma = Cone.from_rays(
        [[rng.randint(-m, m) for _ in range(d)] for _ in range(2)], d)
    if sigma.dim == 2 and sigma.is_strictly_convex:
      out.append(sigma)
  return out


def _minors(u, v):
  return [u[i] * v[j] - u[j] * v[i]
          for i, j in itertools.combinations(range(len(u)), 2)]


def _orientation(sigma, chain):
  """Check the chain's links on their own, and return the sign of the
  rays' orientation.

  The chain runs from rays[0] to rays[1]; each link (u, v) is a basis of
  the span lattice, its 2 x 2 minors of gcd 1, with the orientation of the
  rays, a positive multiple of their minors; and each inner element u_i
  has u_{i-1} + u_{i+1} = k u_i with k >= 2.  So the chain is a convex
  lattice path of unimodular steps from one ray to the other: the boundary
  of the hull of the cone's nonzero lattice points.
  """
  a, b = sigma.rays
  assert chain[0] == a and chain[-1] == b
  ab = _minors(a, b)
  t = next(i for i, m in enumerate(ab) if m)
  for u, v in zip(chain, chain[1:]):
    uv = _minors(u, v)
    assert math.gcd(*uv) == 1
    assert uv[t] * ab[t] > 0
  for prev, u, nxt in zip(chain, chain[1:], chain[2:]):
    total = [x + z for x, z in zip(prev, nxt)]
    k = next(x // y for x, y in zip(total, u) if y)
    assert k >= 2 and total == [k * y for y in u]
  return 1 if ab[t] > 0 else -1


def test_chain_equals_the_enumeration_on_seeded_two_cones():
  answered = refused = 0
  ranks, signs = set(), set()
  for sigma in _two_cones(random.Random(23), 3000):
    chain = _chain(sigma)
    signs.add(_orientation(sigma, chain))
    ranks.add(sigma.ambient_rank)
    got = hilbert_basis(sigma)
    assert got == sorted(chain)
    try:
      want = _enumerated_basis(sigma)
    except ValueError:
      refused += 1
      continue
    answered += 1
    assert got == want, sigma.rays
  assert ranks == {2, 3, 4} and signs == {1, -1}
  assert answered >= 2000 and refused >= 100, (answered, refused)


def test_chain_runs_from_the_first_ray_in_either_orientation():
  # det((0, 1), (3, -2)) < 0 < det((1, 0), (1, 3))
  assert _chain(Cone.from_rays([(0, 1), (3, -2)], 2)) == [
      (0, 1), (1, 0), (2, -1), (3, -2)]
  assert _chain(Cone.from_rays([(1, 0), (1, 3)], 2)) == [
      (1, 0), (1, 1), (1, 2), (1, 3)]
  # the same cones in rank 3, where the chain works in span coordinates
  assert _chain(Cone.from_rays([(0, 1, 5), (3, -2, 5)], 3)) == [
      (0, 1, 5), (1, 0, 5), (2, -1, 5), (3, -2, 5)]


def test_index_past_the_enumeration_budget_with_a_short_chain():
  sigma = Cone.from_rays([(0, 1), (MAX_HILBERT_INDEX + 1, -1)], 2)
  with pytest.raises(ValueError, match="total simplicial index"):
    _enumerated_basis(sigma)
  assert hilbert_basis(sigma) == [(0, 1), (1, 0), (MAX_HILBERT_INDEX + 1, -1)]


def test_index_1e30_cone_is_answered_at_once():
  big = 10 ** 30
  sigma = Cone.from_rays([(0, 1), (big, -1)], 2)
  t0 = time.perf_counter()
  basis = hilbert_basis(sigma)
  assert time.perf_counter() - t0 < 0.1
  assert basis == [(0, 1), (1, 0), (big, -1)]
  fan, steps = resolve_2d(Fan(2, (sigma,)))
  assert steps == [(1, 0)]
  assert fan == Fan(2, (Cone.from_rays([(0, 1), (1, 0)], 2),
                        Cone.from_rays([(1, 0), (big, -1)], 2)))


@pytest.mark.parametrize("d", [2, 3])
def test_element_budget_at_its_edge(d):
  def cone(n):
    return Cone.from_rays([(1, 0) + (0,) * (d - 2), (1, n) + (0,) * (d - 2)], d)

  edge = hilbert_basis(cone(MAX_HILBERT_INDEX))
  assert edge == [(1, k) + (0,) * (d - 2) for k in range(MAX_HILBERT_INDEX + 1)]
  with pytest.raises(ValueError, match="Hilbert basis capped at %d elements"
                     % (MAX_HILBERT_INDEX + 1)):
    hilbert_basis(cone(MAX_HILBERT_INDEX + 1))


def test_two_cones_take_no_adjugate_and_no_parallelepiped(monkeypatch):
  # fresh cones, with no Hilbert basis stored by an earlier test
  _cone_from_gens.cache_clear()
  cones = _two_cones(random.Random(29), 60)
  solid = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)

  def refuse(*args):
    raise AssertionError("enumeration step taken")

  monkeypatch.setattr(cone_module, "_adjugate", refuse)
  monkeypatch.setattr(cone_module, "_parallelepiped_points", refuse)
  for sigma in cones:
    hilbert_basis(sigma)
  # the guard is live: a 3-cone still enumerates
  with pytest.raises(AssertionError, match="enumeration step taken"):
    hilbert_basis(solid)


def _malformed(rays):
  """A rank-2 cone object on the given rays, as no conversion makes it."""
  return Cone(ambient_rank=2, rays=rays, lineality_basis=(), facet_normals=(),
              facet_rays=(), span_normals=(), _dim=2)


def test_chain_guards_catch_a_malformed_cone():
  # (4, -2) is twice a lattice point: the chain stops at (2, -1)
  with pytest.raises(RuntimeError, match="ends at"):
    _chain(_malformed(((0, 1), (4, -2))))
  # (2, 0) is twice a lattice point: (r a + b) / n is not one
  with pytest.raises(RuntimeError, match="not a lattice point"):
    _chain(_malformed(((2, 0), (0, 1))))
