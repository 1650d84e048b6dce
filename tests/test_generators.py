"""A cone's generators, and the fan constructions that must read them.

Cone.generators gives the rays, then each lineality vector and its
negation.  A construction that reads only the rays drops the lineality:
fiber_product then pulls back the pointed part of a mapped cone, and
product_fan builds a product of too low a dimension.  These tests pin
both on cones with lineality: the upper half-plane over itself, seeded
fiber products against a reference built from the generators, and
products with a line or a half-plane factor.  The generators themselves
must give the cone back under Cone.from_rays, on seeded cones with
lineality, of lower dimension, the zero cone and the whole space.
"""

import random

import pytest

from covering_reference import projective_fan, random_stars
from logfan.cone import Cone, intersect
from logfan.fan import Fan, FanMap, fiber_product, product_fan
from logfan.lattice import IntMatrix, is_unimodular

from test_face_home import _hyperplane_cones
from test_faces import _seeded_cones

H = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
UPPER = Fan(2, (H,))
QUADRANTS = Fan(2, (Cone.from_rays([(1, 0), (0, 1)], 2),
                    Cone.from_rays([(-1, 0), (0, 1)], 2)))
LINE = Fan(1, (Cone.from_rays([(1,), (-1,)], 1),))
RAY = Fan(1, (Cone.from_rays([(1,)], 1),))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_the_generators_give_the_cone_back(d):
  cones = _seeded_cones(d, 30) + (_hyperplane_cones(d, 20) if d > 1 else [])
  whole = Cone.from_rays([[int(i == j) * s for j in range(d)]
                          for i in range(d) for s in (1, -1)], d)
  cones += [Cone.from_rays([], d), whole]
  kinds = set()
  for c in cones:
    gens = c.generators
    assert Cone.from_rays(gens, d) == c, c
    assert len(gens) == len(c.rays) + 2 * len(c.lineality_basis)
    if c.is_strictly_convex:
      assert gens is c.rays
    kinds.add("zero" if c.is_zero else "whole" if c == whole and d > 0
              else "lineality" if c.lineality_basis
              else "low" if c.dim < d else "pointed")
  want = {"zero", "whole", "pointed"}
  assert want | ({"lineality", "low"} if d > 1 else set()) <= kinds
  assert whole.lineality_basis and not whole.rays


@pytest.mark.parametrize("order", ["half-plane first", "quadrants first"])
def test_fiber_product_keeps_the_lineality_of_a_leg(order):
  ident = IntMatrix.identity(2)
  legs = [FanMap(ident, UPPER, UPPER), FanMap(ident, QUADRANTS, UPPER)]
  if order == "quadrants first":
    legs.reverse()
  assert fiber_product(*legs) == QUADRANTS


def _elementary_unimodular(rng, n):
  """A seeded unimodular n x n matrix: row additions on the identity."""
  rows = [[int(i == j) for j in range(n)] for i in range(n)]
  for _ in range(2 * n):
    i, j = rng.sample(range(n), 2)
    k = rng.choice((-1, 1))
    rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
  if rng.random() < 0.5:
    rows[0] = [-a for a in rows[0]]
  return IntMatrix.from_rows(rows)


def _pullback(matrix, cone, d):
  """The preimage of cone under matrix, from its pulled-back normals."""
  mt = matrix.transpose()
  return Cone.from_inequalities([mt.apply(nu) for nu in cone.facet_normals],
                                [mt.apply(s) for s in cone.span_normals], d)


def _with_line(fan, u):
  """The cones u * (R e_3 + c) in rank 3, for the rank-2 cones c of fan."""
  gens = lambda c: ([tuple(r) + (0,) for r in c.rays]
                    + [(0, 0, 1), (0, 0, -1)])
  return Fan.make([Cone.from_rays([u.apply(g) for g in gens(c)], 3)
                   for c in fan.max_cones], 3)


def _seeded_legs(count):
  """Seeded pairs of fan maps (a, b) into a rank-3 target fan whose cones
  all have a line of lineality.  a is a lattice isomorphism from the
  preimage of a refinement of the target, so its source cones have
  lineality too; b is not an isomorphism, and its source is the preimage
  fan of the target or of a refinement of it."""
  rng = random.Random(31)
  out = []
  while len(out) < count:
    chain = random_stars(rng, 2, rng.randint(1, 3))
    u = _elementary_unimodular(rng, 3)
    target = _with_line(chain[0], u)
    a_matrix = _elementary_unimodular(rng, 3)
    finer = _with_line(chain[rng.randint(1, len(chain) - 1)], u)
    a_source = Fan.make([_pullback(a_matrix, c, 3) for c in finer.max_cones], 3)
    m = rng.choice((2, 3, 4))
    b_matrix = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)]
                                    for _ in range(3)])
    if is_unimodular(b_matrix):
      continue
    b_base = target if rng.random() < 0.5 else _with_line(chain[-1], u)
    b_source = Fan.make([_pullback(b_matrix, c, m)
                         for c in b_base.max_cones], m)
    out.append((FanMap(a_matrix, a_source, target),
                FanMap(b_matrix, b_source, target)))
  return out


def _reference_fiber_product(a, b):
  """Fan.make of the intersections of each cone of b's source with the
  preimage under b of each mapped cone of a, the mapped cone built from
  the images of the source cone's generators."""
  d = b.source.ambient_rank
  pieces = []
  for ca in a.source.max_cones:
    img = Cone.from_rays([a.matrix.apply(g) for g in ca.generators],
                         a.target.ambient_rank)
    pulled = _pullback(b.matrix, img, d)
    pieces += [intersect(pulled, cb) for cb in b.source.max_cones]
  return Fan.make(pieces, d)


def test_fiber_product_matches_the_reference_on_sources_with_lineality():
  lineality = 0
  dims = set()
  for a, b in _seeded_legs(24):
    assert all(c.lineality_basis for c in a.source.max_cones)
    want = _reference_fiber_product(a, b)
    assert fiber_product(a, b) == want
    assert fiber_product(b, a) == want
    # each cone maps into a mapped cone of a and lies in a cone of b
    for p in want.max_cones:
      image = [b.matrix.apply(g) for g in p.generators]
      assert any(all(map(Cone.from_rays(
          [a.matrix.apply(g) for g in ca.generators], 3).contains, image))
                 for ca in a.source.max_cones)
      assert any(cb.contains_cone(p) for cb in b.source.max_cones)
    lineality += any(p.lineality_basis for p in want.max_cones)
    dims.add(b.source.ambient_rank)
  # sources of ranks 2 to 4, and results with and without lineality
  assert dims == {2, 3, 4}
  assert 0 < lineality < 24


def test_product_with_a_half_plane_keeps_its_lineality():
  (c,) = product_fan(UPPER, RAY).max_cones
  assert set(c.rays) == {(0, 1, 0), (0, 0, 1)}
  assert c.lineality_basis == ((1, 0, 0),)
  assert c.dim == 3


def test_the_complete_line_times_a_ray_is_a_half_plane():
  (c,) = product_fan(LINE, RAY).max_cones
  assert c == Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
  assert c.dim == 2 and c.lineality_basis == ((1, 0),)


def test_every_product_cone_has_the_sum_of_the_dimensions():
  fans = [UPPER, QUADRANTS, LINE, RAY, projective_fan(1), projective_fan(2),
          _with_line(projective_fan(2), IntMatrix.identity(3)),
          Fan(2, (Cone.from_rays([(1, 1)], 2),)),
          Fan(2, (Cone.from_rays([], 2),))]
  for f1 in fans:
    for f2 in fans:
      prod = product_fan(f1, f2)
      want = sorted(a.dim + b.dim for a in f1.max_cones for b in f2.max_cones)
      assert sorted(c.dim for c in prod.max_cones) == want, (f1, f2)
      want = sorted(len(a.lineality_basis) + len(b.lineality_basis)
                    for a in f1.max_cones for b in f2.max_cones)
      assert sorted(len(c.lineality_basis) for c in prod.max_cones) == want
