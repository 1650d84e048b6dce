"""The output-sensitive cone enumerations against their exhaustive oracles.

Conversion (double description from one adjugate, and a pointed cone's rays
read from its incidences), faces (incidence closure), parallelepiped points
(group enumeration), adjugates (one fraction-free elimination), the
triangulation and the face test (incidence bitsets) are compared with the
earlier code kept in cone_reference.py, on seeded inputs, and the incidence
each cone keeps (facet_rays) with the zero sets of dot products.  Work-count
guards check, without timing, that each enumeration makes only the objects
of its answer, that a pointed cone takes one conversion, that faces and the
triangulation make no dot product, and that no Hermite kernel is taken
where the rank shows it is {0}, and that the Hilbert-basis reduction makes
no containment test.  Hilbert bases in ranks 7 and 8 and near the budget,
and duals in ranks 5 to 8, are checked where the earlier code refused them
or took seconds; the Hilbert-basis budget and the behaviour under python -O
are checked last.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import logfan
from logfan import cone as cone_module
from logfan.cli import execute
from logfan.cone import (
    MAX_HILBERT_INDEX,
    Cone,
    _adjugate,
    _dot,
    _neg,
    _parallelepiped_points,
    _pointed_extreme_rays,
    _simplicial_pieces,
    _span_coordinates,
    dual_cone,
    faces,
    hilbert_basis,
    intersect,
    is_face_of,
)
from logfan.lattice import IntMatrix, det, primitive

from cone_reference import (
    _rank_small,
    reference_adjugate,
    reference_det,
    reference_faces,
    reference_hilbert_basis,
    reference_is_face_of,
    reference_parallelepiped_points,
    reference_pointed_extreme_rays,
    reference_simplicial_cone,
    reference_simplicial_pieces,
    reference_zero_cone,
)
from resolution_reference import criterion_11_fans

# a rank-5 cone with 13 rays and 40 facets, and the cone over the cyclic
# polytope C(8, 4)
REACH_13_RAYS = [
    (1, -3, -2, -2, 1), (1, -3, -1, -2, 0), (1, -3, 2, 2, 2),
    (1, -2, -2, -3, -2), (1, -2, 1, -3, 0), (1, -2, 3, 2, -2),
    (1, -1, 1, 1, 3), (1, 0, -2, 1, 3), (1, 0, 1, 2, -2), (1, 1, 1, 2, 0),
    (1, 2, 2, -3, 0), (1, 3, 0, -1, 2), (1, 3, 2, -1, 2),
]
CYCLIC_8 = [(1, t, t * t, t ** 3, t ** 4) for t in range(8)]
# simplicial, |det| = 97 * 101 * 103 * 107, about 1.08e8
DET_1E8 = [(1, 0, 0, 0, 0), (1, 97, 0, 0, 0), (1, 5, 101, 0, 0),
           (1, 3, 7, 103, 0), (1, 2, 9, 11, 107)]


def _vec(rng, d, lo=-3, hi=3):
  return [rng.randint(lo, hi) for _ in range(d)]


def _random_system(rng, d, kind):
  """Inequalities and equations of one of the kinds the conversion meets."""
  rows = [_vec(rng, d) for _ in range(rng.randint(d, d + 4))]
  eqs = []
  if kind == "halfspace":
    # small rows in an open half-space: a pointed cone with many rays, and
    # degenerate, so that some pairs of rays share d - 3 zero rows yet are
    # not adjacent
    rows = [[1] + _vec(rng, d - 1, -1, 1) for _ in range(rng.randint(d + 2, d + 6))]
  elif kind == "equations":
    eqs = [_vec(rng, d, -2, 2) for _ in range(rng.randint(1, d))]
  elif kind == "lineality":
    line = _vec(rng, d, -2, 2)
    ll = _dot(line, line)
    if ll:
      rows = [[x * ll - _dot(r, line) * y for x, y in zip(r, line)]
              for r in rows]
  elif kind == "redundant":
    rows += [[a + b for a, b in zip(rows[0], rows[1])], list(rows[0]),
             [2 * x for x in rows[1]], [0] * d]
  elif kind == "contradictory":
    rows += [[-x for x in rows[0]], [-a - b for a, b in zip(rows[1], rows[-1])]]
  elif kind == "zero":
    rows = [[int(i == j) for j in range(d)] for i in range(d)] + [[-1] * d]
  return rows, eqs


KINDS = ["plain", "halfspace", "equations", "lineality", "redundant",
         "contradictory", "zero"]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_conversion_matches_exhaustive_reference(d):
  rng = random.Random(100 + d)
  for n in range(60):
    rows, eqs = _random_system(rng, d, KINDS[n % len(KINDS)])
    rays, lin, inc, _ = _pointed_extreme_rays(rows, eqs, d)
    assert (rays, lin) == reference_pointed_extreme_rays(rows, eqs, d), (rows, eqs)
    assert inc == [sum(1 << i for i, a in enumerate(rows) if _dot(a, r) == 0)
                   for r in rays], (rows, eqs)


def test_conversion_of_the_zero_cone_and_of_no_constraints():
  for d in (1, 3, 5):
    rays, lin, inc, _ = _pointed_extreme_rays([], [], d)
    assert (rays, lin) == reference_pointed_extreme_rays([], [], d) and inc == []
    rows, _ = _random_system(random.Random(d), d, "zero")
    assert _pointed_extreme_rays(rows, [], d)[:3] == ([], [], [])


def _random_gens(rng, d):
  lo, hi = (-1, 2) if d >= 4 else (-3, 3)
  return [_vec(rng, d, lo, hi) for _ in range(rng.randint(1, d + 3))]


def _dot_incidence(sigma):
  """The ray-facet incidence recomputed by dot products: for each facet
  normal, the bitset of the rays on which it vanishes."""
  return tuple(sum(1 << j for j, r in enumerate(sigma.rays) if _dot(nu, r) == 0)
               for nu in sigma.facet_normals)


def _check_pieces(sigma):
  """Parallelepiped points of every piece, and the Hilbert basis."""
  assert (sorted(_simplicial_pieces(sigma))
          == sorted(reference_simplicial_pieces(sigma))), sigma
  coords = _span_coordinates(sigma)
  for piece in _simplicial_pieces(sigma):
    got = _parallelepiped_points(piece, *_adjugate([coords[r] for r in piece]))
    assert sorted(got) == sorted(
        reference_parallelepiped_points(piece, sigma.ambient_rank)), piece
  assert hilbert_basis(sigma) == reference_hilbert_basis(sigma)


# cones with lineality, by rank: the plane from three generators none of
# which is the negation of another, a half-plane with extra generators, a
# line, and a 2-dimensional lineality with a redundant generator
LINEALITY_CASES = {
    2: [[(1, 0), (-1, 1), (-1, -1)],
        [(1, 0), (-1, 0), (0, 1), (1, 1), (-2, 1), (3, 5)]],
    3: [[(1, 2, -1), (-1, -2, 1)]],
    4: [[(-1, 0, 0, 0), (0, -1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0),
         (0, 0, 1, 1), (2, -1, 0, 1)]],
}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_from_rays_faces_and_pieces_match_references(d):
  rng = random.Random(200 + d)
  drawn = [_random_gens(rng, d) for _ in range(25)]
  seen_lineality = 0
  for n, gens in enumerate(drawn + LINEALITY_CASES.get(d, [])):
    sigma = Cone.from_rays(gens, d)
    if math.comb(len(sigma.facet_normals), d - 1) > 3000:
      continue  # keeps the exhaustive second conversion small
    normals, span = reference_pointed_extreme_rays(gens, [], d)
    rays, lin = reference_pointed_extreme_rays(normals, span, d)
    assert sigma.rays == tuple(rays) and sigma.lineality_basis == tuple(lin)
    assert sorted(sigma.facet_normals) == normals
    assert list(sigma.span_normals) == span
    assert sigma.dim == _rank_small(gens, d)
    assert sigma.facet_rays == _dot_incidence(sigma)
    assert faces(sigma) == reference_faces(sigma)
    if sigma.is_strictly_convex and len(sigma.rays) == sigma.dim:
      ref = reference_simplicial_cone(sigma.rays, d)
      assert (sigma.facet_normals, sigma.facet_rays, sigma.span_normals,
              sigma.dim) == (ref.facet_normals, ref.facet_rays,
                             ref.span_normals, ref.dim)
    if sigma.is_strictly_convex and not sigma.is_zero:
      _check_pieces(sigma)
    seen_lineality += n < len(drawn) and not sigma.is_strictly_convex
  assert seen_lineality > 0


def _unit(d, i):
  return tuple(int(j == i) for j in range(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_facet_rays_are_the_zero_sets_of_the_facets(d):
  e = [_unit(d, i) for i in range(d)]
  plus = tuple(a + b for a, b in zip(e[0], e[1]))
  # the zero cone, a redundant generator of a pointed cone, and a line
  # inside a half-space
  fixed = [[], e + [plus], [e[0], _neg(e[0])] + e[1:]]
  rng = random.Random(700 + d)
  drawn = [_random_gens(rng, d) for _ in range(60)]
  seen = {"zero": 0, "redundant": 0, "lineality": 0}
  for gens in fixed + drawn + LINEALITY_CASES.get(d, []):
    sigma = Cone.from_rays(gens, d)
    assert sigma.facet_rays == _dot_incidence(sigma), gens
    distinct = {primitive(g) for g in gens if any(g)}
    seen["zero"] += sigma.is_zero
    seen["lineality"] += not sigma.is_strictly_convex
    seen["redundant"] += (sigma.is_strictly_convex
                          and len(distinct) > len(sigma.rays))
  assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pieces_of_cones_that_are_not_full_dimensional(d):
  rng = random.Random(300 + d)
  seen = 0
  while seen < 20:
    k = rng.randint(1, d - 1)
    basis = [_vec(rng, d, -1, 1) for _ in range(k)]
    gens = [[sum(rng.randint(0, 1) * b[i] for b in basis) for i in range(d)]
            for _ in range(k + rng.randint(0, 2))]
    sigma = Cone.from_rays(gens, d)
    if sigma.is_zero or not sigma.is_strictly_convex or sigma.dim == d:
      continue
    seen += 1
    assert sigma.facet_rays == _dot_incidence(sigma)
    _check_pieces(sigma)
    assert faces(sigma) == reference_faces(sigma)


def test_criterion_11_cones_match_references():
  for fan in criterion_11_fans(random.Random(11), 20):
    for sigma in fan.max_cones:
      assert sigma.facet_rays == _dot_incidence(sigma)
      assert faces(sigma) == reference_faces(sigma)
      _check_pieces(sigma)
      gens = list(sigma.rays)
      assert (_pointed_extreme_rays(gens, [], 2)[:2]
              == reference_pointed_extreme_rays(gens, [], 2))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_adjugate_and_determinant_match_cofactors(k):
  rng = random.Random(400 + k)
  dets = []
  for n in range(40):
    rows = [_vec(rng, k, -4, 4) for _ in range(k)]
    if n % 4 == 1:
      # singular: the last row is a combination of the others
      rows[-1] = ([0] if k == 1 else
                  [3 * a - b for a, b in zip(rows[0], rows[k // 2 - 1])])
    elif n % 4 == 2 and k > 1:
      rows[0][0] = 0  # the first pivot needs a row swap
    adj, dd = _adjugate(rows)
    assert dd == reference_det(rows), rows
    if dd:
      assert adj == reference_adjugate(rows), rows
    else:
      assert adj is None
    dets.append(dd)
  assert min(dets) < 0 < max(dets) and 0 in dets


# rank 6, 13 vertices of the 0/1 cube: a facet F meets another facet in a
# 3-dimensional face with 4 rays that is not a facet of F, so only the
# maximality test keeps it out of the triangulation
CUBE_13 = [(1, 0, 1, 1, 1, 0), (1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1),
           (1, 0, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 1),
           (1, 1, 0, 0, 0, 1), (1, 1, 0, 1, 0, 0), (1, 0, 0, 0, 1, 1),
           (1, 0, 0, 1, 0, 1), (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 0, 0),
           (1, 1, 0, 1, 1, 1)]


@pytest.mark.parametrize("rays", [REACH_13_RAYS, CYCLIC_8, CUBE_13],
                         ids=["13-ray-40-facet", "cyclic-8", "cube-13-rank6"])
def test_pieces_of_the_reach_cones_match_reference(rays):
  sigma = Cone.from_rays(rays, len(rays[0]))
  got = sorted(_simplicial_pieces(sigma))
  assert got == sorted(reference_simplicial_pieces(sigma))
  assert len(set(got)) == len(got)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_is_face_of_matches_reference(d):
  rng = random.Random(500 + d)
  seen = 0
  while seen < 15:
    sigma = Cone.from_rays(_random_gens(rng, d), d)
    if not sigma.is_strictly_convex or sigma.is_zero:
      continue
    seen += 1
    fs = faces(sigma)
    others = [Cone.from_rays([sigma.interior_point()], d),
              Cone.from_rays([[-x for x in sigma.rays[0]]], d)]
    for _ in range(6):
      sub = [r for r in sigma.rays if rng.random() < 0.5]
      others.append(Cone.from_rays(sub + [_vec(rng, d, -1, 1)]
                                   * rng.randint(0, 1), d))
    for gamma in fs + others:
      if gamma.lineality_basis:
        continue
      assert (is_face_of(gamma, sigma)
              == reference_is_face_of(gamma, sigma)), (gamma, sigma)
    assert all(is_face_of(f, sigma) for f in fs)
    assert is_face_of(others[0], sigma) == (sigma.dim == 1)


def test_hilbert_basis_of_a_cone_with_a_long_reduction_chain():
  # 999 steps of (1, 1) lead from (999, 1000) towards (0, 1), outside the
  # cone: a search that recursed once per step would run out of stack
  sigma = Cone.from_rays([(1, 0), (999, 1000)], 2)
  assert hilbert_basis(sigma) == [(1, 0), (1, 1), (999, 1000)]


def _high_rank_cone(rng, d):
  """e_1, ..., e_{d-1} and one or two vectors of last entry 2 to 5: pointed,
  of small index, and with a bounding box the oracle can walk."""
  rays = [tuple(int(i == j) for j in range(d)) for i in range(d - 1)]
  for _ in range(rng.randint(1, 2)):
    rays.append(tuple(_vec(rng, d - 1, -1, 1) + [rng.randint(2, 5)]))
  return Cone.from_rays(rays, d)


def test_hilbert_basis_matches_reference_in_ranks_7_and_8():
  rng = random.Random(7)
  for n in range(30):
    sigma = _high_rank_cone(rng, 7 + n % 2)
    assert hilbert_basis(sigma) == reference_hilbert_basis(sigma), sigma.rays


# three cones near the budget: index 1 927 with 986 basis elements, a
# simplicial rank-4 cone of index 1 000 whose 999 box points are all in the
# basis, and two pieces of index 999 whose 2 000 candidates share one grading
LARGE_INDEX = {
    "index-1927": [(1, 0, 0), (1, 41, 0), (1, 5, 47)],
    "simplicial-1000": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (1, 1, 1, 1000)],
    "square-2x999": [(1, 0, 0), (1, 1, 0), (1, 0, 999), (1, 1, 999)],
}


@pytest.mark.parametrize("rays", LARGE_INDEX.values(), ids=LARGE_INDEX.keys())
def test_hilbert_basis_of_large_index_cones_matches_reference(rays):
  sigma = Cone.from_rays(rays, len(rays[0]))
  assert hilbert_basis(sigma) == reference_hilbert_basis(sigma)


def test_hilbert_basis_reduces_the_index_1927_cone_quickly():
  sigma = Cone.from_rays(LARGE_INDEX["index-1927"], 3)
  t0 = time.perf_counter()
  basis = hilbert_basis(sigma)
  assert time.perf_counter() - t0 < 0.5
  assert len(basis) == 986


def _cyclic(d, n, pad=0):
  """The cone over the cyclic polytope with n vertices in rank d, followed
  by pad zero coordinates."""
  return Cone.from_rays([(1,) + tuple(t ** k for k in range(1, d)) + (0,) * pad
                         for t in range(n)], d + pad)


def _fields(c):
  return (c.ambient_rank, c.rays, c.lineality_basis, c.facet_normals,
          c.facet_rays, c.span_normals, c.dim)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_dual_cone_answers_above_rank_4(d):
  for sigma in (_cyclic(d, d + 2), _cyclic(d, d + 4), _cyclic(d - 1, d + 2, 1)):
    dual = dual_cone(sigma)
    want = Cone.from_rays(list(sigma.facet_normals)
                          + [w for s in sigma.span_normals for w in (s, _neg(s))],
                          d)
    assert _fields(dual) == _fields(want)
    assert len(dual.rays) == len(sigma.facet_normals)
    assert len(dual.lineality_basis) == len(sigma.span_normals)
    assert _fields(dual_cone(dual)) == _fields(sigma)


# ------------------------------------------------------------ work counts

def _count_calls(monkeypatch, owner, name, static=False):
  calls = []
  orig = getattr(owner, name)

  def counted(*args, **kwargs):
    calls.append(1)
    return orig(*args, **kwargs)

  monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)
  return calls


@pytest.mark.parametrize("rays", [REACH_13_RAYS, CYCLIC_8],
                         ids=["13-ray-40-facet", "cyclic-8"])
def test_one_conversion_takes_one_adjugate(monkeypatch, rays):
  sigma = Cone.from_rays(rays, 5)
  adjugates = _count_calls(monkeypatch, cone_module, "_adjugate")
  systems = [(rays, [], 5), (sigma.facet_normals, sigma.span_normals, 5),
             ([], [], 3), ([(1, 0, 0)], [(2, 0, 0)], 3)]
  rng = random.Random(7)
  for n in range(30):
    d = 2 + n % 4
    systems.append(_random_system(rng, d, KINDS[n % len(KINDS)]) + (d,))
  started = 0
  for ineqs, eqs, d in systems:
    del adjugates[:]
    _pointed_extreme_rays(ineqs, eqs, d)
    m = _rank_small(list(eqs) + list(ineqs), d) - _rank_small(eqs, d)
    assert len(adjugates) == (1 if m else 0), (ineqs, eqs)
    started += m > 0
  assert started > 10


@pytest.mark.parametrize("gens, conversions", [
    (REACH_13_RAYS, 1),
    (CYCLIC_8, 1),
    ([(1, 0), (1, 3)], 1),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 1),
    ([(1, 0), (-1, 1), (-1, -1)], 2),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], 2),
    ([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)], 2),
], ids=["13-ray", "cyclic-8", "rank-2", "flat", "plane", "half-plane-3",
        "lineality-4"])
def test_pointed_cones_take_one_conversion(monkeypatch, gens, conversions):
  cone_module._cone_from_gens.cache_clear()
  calls = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  sigma = Cone.from_rays(gens, len(gens[0]))
  assert sigma.is_strictly_convex == (conversions == 1)
  assert len(calls) == conversions


def test_zero_cone_comes_from_the_conversion():
  cone_module._cone_from_gens.cache_clear()
  for d in range(6):
    sigma = Cone.from_rays([], d)
    ref = reference_zero_cone(d)
    assert sigma == ref
    assert ((sigma.facet_normals, sigma.facet_rays, sigma.span_normals,
             sigma.dim) == (ref.facet_normals, ref.facet_rays,
                            ref.span_normals, ref.dim))
    assert Cone.from_rays([(0,) * d], d) is sigma


def _pointed_full_cones(rng, d, count):
  """Seeded pointed full-dimensional cones, simplicial ones among them."""
  out = []
  while len(out) < count:
    gens = [[1] + _vec(rng, d - 1, -2, 2) for _ in range(rng.randint(d, d + 4))]
    sigma = Cone.from_rays(gens, d)
    if sigma.dim == d:
      out.append((gens, sigma))
  return out


def _count_kernels(monkeypatch):
  cone_module._cone_from_gens.cache_clear()
  return _count_calls(monkeypatch, cone_module, "_kernel_rows")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pointed_full_dimensional_cones_take_no_hermite_kernel(monkeypatch, d):
  cones = _pointed_full_cones(random.Random(600 + d), d, 12)
  if d == 5:
    cones += [(rays, Cone.from_rays(rays, 5))
              for rays in (REACH_13_RAYS, CYCLIC_8)]
  pairs = []
  for (_, a), (_, b) in zip(cones, cones[1:]):
    if intersect(a, b).dim == d:
      pairs.append((a, b, intersect(a, b)))
  assert len(pairs) >= 3
  calls = _count_kernels(monkeypatch)
  for gens, sigma in cones:
    assert Cone.from_rays(gens, d) == sigma
    assert Cone.from_inequalities(sigma.facet_normals, [], d) == sigma
  for a, b, both in pairs:
    assert intersect(a, b) == both
  assert calls == []


def test_every_hermite_kernel_left_is_nonempty(monkeypatch):
  cone_module._cone_from_gens.cache_clear()
  sizes = []
  orig = cone_module._kernel_rows

  def counted(rows, d):
    out = orig(rows, d)
    sizes.append(len(out))
    return out

  monkeypatch.setattr(cone_module, "_kernel_rows", counted)
  rng = random.Random(8)
  for n in range(80):
    d = 2 + n % 4
    rows, eqs = _random_system(rng, d, KINDS[n % len(KINDS)])
    _pointed_extreme_rays(rows, eqs, d)
    sigma = Cone.from_rays(_random_gens(rng, d), d)
    faces(sigma)
  assert sizes and min(sizes) > 0


def test_triangulation_and_face_test_build_no_cones(monkeypatch):
  rng = random.Random(9)
  # a square cone of dimension 3 in rank 4, a pentagon cone of dimension 3
  # in rank 5
  square = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)]
  pentagon = [(1, a, b, a + b, 0)
              for a, b in [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]]
  cones = [Cone.from_rays(g, len(g[0]))
           for g in (REACH_13_RAYS, CYCLIC_8, square, pentagon)]
  while len(cones) < 30:
    d = rng.randint(3, 5)
    sigma = Cone.from_rays(_random_gens(rng, d), d)
    if sigma.is_strictly_convex and len(sigma.rays) > sigma.dim:
      cones.append(sigma)
  assert any(c.dim < c.ambient_rank for c in cones)
  work = [(c, faces(c)) for c in cones]
  calls = _count_calls(monkeypatch, Cone, "from_rays", static=True)
  for sigma, fs in work:
    for f in fs:
      assert is_face_of(f, sigma)
    # a raw one-ray cone: its ray, the sum of sigma's rays, is no ray of sigma
    inner = Cone(sigma.ambient_rank, (sigma.interior_point(),), (),
                 facet_normals=(), facet_rays=(), span_normals=(), _dim=1)
    assert not is_face_of(inner, sigma)
    if sigma.ambient_rank < 5:
      hilbert_basis(sigma)
    list(_simplicial_pieces(sigma))
  assert calls == []


def test_faces_and_pieces_read_the_stored_incidence(monkeypatch):
  square = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)]
  lineality = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
               (0, 1, 1, 1)]
  cones = [Cone.from_rays(g, len(g[0]))
           for g in (REACH_13_RAYS, CYCLIC_8, CUBE_13, square, lineality)]
  for sigma in cones:
    faces(sigma)  # fills the from_rays cache with the faces
  calls = _count_calls(monkeypatch, cone_module, "_dot")
  for sigma in cones:
    faces(sigma)
    if sigma.is_strictly_convex:
      list(_simplicial_pieces(sigma))
  assert calls == []


def test_hilbert_reduction_makes_no_containment_test(monkeypatch):
  calls = _count_calls(monkeypatch, Cone, "contains")
  for rays in LARGE_INDEX.values():
    hilbert_basis(Cone.from_rays(rays, len(rays[0])))
  assert calls == []


def test_reach_cones_convert_and_list_faces():
  sigma = Cone.from_rays(REACH_13_RAYS, 5)
  assert len(sigma.rays) == 13 and len(sigma.facet_normals) == 40
  cyclic = Cone.from_rays(CYCLIC_8, 5)
  # f-vector of C(8, 4) is (8, 28, 40, 20), plus the apex and the cone
  assert len(faces(cyclic)) == 1 + 8 + 28 + 40 + 20 + 1


@pytest.mark.parametrize("gens", [
    CYCLIC_8,
    REACH_13_RAYS,
    [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1), (0, 1, 2)],
    [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)],
], ids=["cyclic-8", "13-ray", "lineality-3", "lineality-4"])
def test_faces_builds_one_cone_per_face(monkeypatch, gens):
  sigma = Cone.from_rays(gens, len(gens[0]))
  calls = _count_calls(monkeypatch, Cone, "from_rays", static=True)
  out = faces(sigma)
  assert len(calls) <= len(out)


def test_enumeration_yields_index_minus_one_points_per_piece():
  rng = random.Random(5)
  checked = 0
  while checked < 60:
    d = rng.randint(2, 5)
    sigma = Cone.from_rays([_vec(rng, d, -4, 4) for _ in range(rng.randint(1, d))], d)
    if not sigma.is_strictly_convex or sigma.is_zero:
      continue
    checked += 1
    coords = _span_coordinates(sigma)
    for piece in _simplicial_pieces(sigma):
      rows = [coords[r] for r in piece]
      pts = _parallelepiped_points(piece, *_adjugate(rows))
      assert len(pts) == abs(det(IntMatrix.from_rows(rows))) - 1
      assert len(set(pts)) == len(pts) and all(any(p) for p in pts)


# ------------------------------------------------------------- budget, -O

def test_hilbert_budget_refuses_the_det_1e8_cone_quickly():
  sigma = Cone.from_rays(DET_1E8, 5)
  t0 = time.perf_counter()
  with pytest.raises(ValueError, match="capped at a total simplicial index of %d"
                     % MAX_HILBERT_INDEX):
    hilbert_basis(sigma)
  assert time.perf_counter() - t0 < 1.0


def test_hilbert_budget_adds_up_the_pieces():
  n = MAX_HILBERT_INDEX // 2 + 1
  # two simplicial pieces of index n each, together above the budget
  square = Cone.from_rays([(1, 0, 0), (1, 1, 0), (1, 0, n), (1, 1, n)], 3)
  with pytest.raises(ValueError, match="this cone needs %d" % (2 * n)):
    hilbert_basis(square)
  # a cone at the budget gets its answer
  edge = Cone.from_rays([(1, 0), (1, MAX_HILBERT_INDEX)], 2)
  assert hilbert_basis(edge) == [(1, k) for k in range(MAX_HILBERT_INDEX + 1)]


def test_cli_exits_two_with_the_budget_message(capsys):
  n = MAX_HILBERT_INDEX + 1
  # the chain of this 2-cone is (1, 0), (1, 1), ..., (1, n): one element
  # past the budget
  gens = "1,0;1,%d;1,1" % n
  code = execute(["hom", "--src=" + gens, "--dst=" + gens, "--matrix=1,0;0,1"])
  assert code == 2
  assert ("Hilbert basis capped at %d elements"
          % (MAX_HILBERT_INDEX + 1)) in capsys.readouterr().err


_O_SCRIPT = """
from logfan.cone import Cone, faces, hilbert_basis
for gens, d in [([(1, 0, 0), (1, 2, 0), (1, 1, 3), (1, 0, 2)], 3),
                ([(1, 2, 0, 1), (0, 1, 1, 1), (2, 1, -1, 1)], 4),
                ([(1, 0), (1, 5)], 2),
                ([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], 3)]:
  c = Cone.from_rays(gens, d)
  print([(f.rays, f.lineality_basis) for f in faces(c)])
  if c.is_strictly_convex:
    print(hilbert_basis(c))
"""


def test_faces_and_hilbert_basis_agree_under_optimize():
  env = dict(os.environ)
  src = str(pathlib.Path(logfan.__file__).parent.parent)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  outs = []
  for optimize in ([], ["-O"]):
    proc = subprocess.run([sys.executable] + optimize + ["-c", _O_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    outs.append(proc.stdout)
  assert outs[0] == outs[1]
  assert outs[0].count("\n") == 7
