"""Tests for cones: canonical forms, duality, Hilbert bases, faces.

The Hilbert basis oracle is a from-scratch irreducibility scan over a graded
slab of lattice points, so it shares no code with the triangulation route
under test.
"""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from logfan.cone import (
    Cone,
    dual_cone,
    faces,
    hilbert_basis,
    intersect,
    is_face_of,
    is_smooth,
)
from logfan.lattice import IntMatrix, det


def _dot(a, b):
  return sum(x * y for x, y in zip(a, b))


def _brute_hilbert_basis(sigma, box):
  """Irreducible elements among the cone's lattice points with entries in
  [-box, box], found by pairwise-sum elimination."""
  d = sigma.ambient_rank
  pts = []
  for p in itertools.product(range(-box, box + 1), repeat=d):
    if any(p) and sigma.contains(p):
      pts.append(p)
  ptset = set(pts)
  out = []
  for x in pts:
    reducible = False
    for y in pts:
      z = tuple(a - b for a, b in zip(x, y))
      if any(z) and z in ptset:
        reducible = True
        break
    if not reducible:
      out.append(x)
  return sorted(out)


def test_dual_worked_example():
  s = Cone.from_rays([(1, 0), (1, 2)], 2)
  assert dual_cone(s).rays == ((0, 1), (2, -1))


def test_dual_is_an_involution_on_worked_example():
  s = Cone.from_rays([(1, 0), (1, 2)], 2)
  assert dual_cone(dual_cone(s)) == s


def test_dual_of_zero_and_full():
  z = Cone.from_rays([], 3)
  full = dual_cone(z)
  assert full.rays == () and len(full.lineality_basis) == 3
  assert dual_cone(full) == z


def test_dual_evaluations_nonnegative():
  s = Cone.from_rays([(2, -1, 0), (0, 1, 3), (1, 1, 1)], 3)
  d = dual_cone(s)
  for m in d.rays:
    for r in s.rays:
      assert _dot(m, r) >= 0


def test_hilbert_basis_worked_examples():
  s = Cone.from_rays([(1, 0), (1, 2)], 2)
  assert hilbert_basis(s) == [(1, 0), (1, 1), (1, 2)]
  s2 = Cone.from_rays([(1, 0), (1, 5)], 2)
  assert hilbert_basis(s2) == [(1, k) for k in range(6)]


def test_hilbert_basis_against_brute_force_2d():
  for rays in [[(1, 0), (1, 2)], [(2, 1), (1, 2)], [(1, 0), (2, 5)],
               [(3, 1), (1, 3)], [(1, 0), (0, 1)], [(5, 2), (2, 5)]]:
    sigma = Cone.from_rays(rays, 2)
    hb = hilbert_basis(sigma)
    brute = _brute_hilbert_basis(sigma, box=8)
    # the slab is wide enough to see every irreducible of these cones
    assert hb == brute, rays


def test_hilbert_basis_quadric_cone_3d():
  # cone over a square: four rays, one extra generator inside
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
  hb = hilbert_basis(sigma)
  brute = _brute_hilbert_basis(sigma, box=3)
  assert hb == brute


def test_hilbert_basis_simplicial_singular_3d():
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
  hb = hilbert_basis(sigma)
  assert hb == _brute_hilbert_basis(sigma, box=4)
  assert (1, 1, 1) in hb


def test_hilbert_basis_rejects_lineality():
  h = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
  with pytest.raises(ValueError):
    hilbert_basis(h)


def test_hilbert_basis_of_zero_cone():
  assert hilbert_basis(Cone.from_rays([], 2)) == []


def test_smooth_cone_hilbert_basis_is_rays():
  for rays, d in [([(1, 0), (1, 1)], 2), ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
                  ([(0, 1, 0), (1, 1, 1)], 3)]:
    sigma = Cone.from_rays(rays, d)
    assert is_smooth(sigma)
    assert hilbert_basis(sigma) == sorted(sigma.rays)


def test_faces_counts():
  s = Cone.from_rays([(1, 0), (1, 2)], 2)
  assert len(faces(s)) == 4
  assert len(faces(Cone.from_rays([], 2))) == 1
  o3 = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
  assert len(faces(o3)) == 8


def test_faces_are_faces_and_closed():
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
  fs = faces(sigma)
  # cone over a square: 1 + 4 + 4 + 1
  assert len(fs) == 10
  for f in fs:
    assert is_face_of(f, sigma)
  # faces of faces are again faces of sigma
  for f in fs:
    for g in faces(f):
      assert any(g == h for h in fs)


def test_is_face_of_rejects_non_faces():
  sigma = Cone.from_rays([(1, 0), (0, 1)], 2)
  inner = Cone.from_rays([(1, 1)], 2)
  assert not is_face_of(inner, sigma)
  assert is_face_of(Cone.from_rays([(1, 0)], 2), sigma)
  assert is_face_of(Cone.from_rays([], 2), sigma)
  assert is_face_of(sigma, sigma)


def test_intersect_worked_example():
  a = Cone.from_rays([(1, 0), (0, 1)], 2)
  b = Cone.from_rays([(1, 1), (-1, 1)], 2)
  assert intersect(a, b).rays == ((0, 1), (1, 1))


def test_intersect_membership_agrees_pointwise():
  a = Cone.from_rays([(2, -1, 0), (0, 1, 3), (1, 1, 1), (0, 0, 1)], 3)
  b = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, -2)], 3)
  c = intersect(a, b)
  for p in itertools.product(range(-4, 5), repeat=3):
    assert c.contains(p) == (a.contains(p) and b.contains(p)), p


def test_intersect_with_own_face():
  sigma = Cone.from_rays([(1, 0), (1, 2)], 2)
  edge = Cone.from_rays([(1, 2)], 2)
  assert intersect(sigma, edge) == edge
  assert intersect(sigma, sigma) == sigma


def test_smoothness_worked_examples():
  assert is_smooth(Cone.from_rays([(1, 0), (1, 1)], 2))
  assert not is_smooth(Cone.from_rays([(1, 0), (1, 2)], 2))
  assert not is_smooth(Cone.from_rays([(1, 1), (1, -1)], 2))
  assert is_smooth(Cone.from_rays([], 4))
  assert is_smooth(Cone.from_rays([(0, 1, 0), (1, 1, 1)], 3))
  # four rays in rank 3 cannot be independent
  assert not is_smooth(Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (1, 1, -1)], 3))


def test_smoothness_matches_determinant_for_full_dim_simplicial():
  for rays in [[(1, 0), (1, 1)], [(1, 0), (1, 2)], [(2, 1), (1, 1)],
               [(1, 1), (1, -1)], [(3, 2), (2, 1)]]:
    sigma = Cone.from_rays(rays, 2)
    d = det(IntMatrix.from_rows([list(r) for r in sigma.rays]))
    assert is_smooth(sigma) == (abs(d) == 1)


def test_queries_bundle():
  sigma = Cone.from_rays([(1, 0), (1, 2)], 2)
  assert sigma.contains_relative_interior((2, 2))
  assert not sigma.contains_relative_interior((1, 0))


def test_relative_interior_of_lower_dimensional_cone():
  ray = Cone.from_rays([(1, 2, 3)], 3)
  assert ray.contains_relative_interior((2, 4, 6))
  assert not ray.contains_relative_interior((0, 0, 0))
  assert not ray.contains_relative_interior((1, 2, 4))


def test_ambient_rank_mismatch_errors():
  a = Cone.from_rays([(1, 0)], 2)
  b = Cone.from_rays([(1, 0, 0)], 3)
  with pytest.raises(ValueError):
    intersect(a, b)
  with pytest.raises(ValueError):
    a.contains((1, 0, 0))
  with pytest.raises(ValueError):
    Cone.from_rays([(1, 0), (1, 0, 0)], 2)


@pytest.mark.parametrize("ineqs, eqs, named", [
    ([[1, 0, 7]], [[0, 1]], "inequality (1, 0, 7)"),
    ([[1, 0], [0, 1]], [[1, 1, 1]], "equation (1, 1, 1)"),
    ([[1, 0], [0, 1]], [[1]], "equation (1,)"),
    ([[1, 0, 0]], [], "inequality (1, 0, 0)"),
], ids=["long-inequality", "long-equation", "short-equation", "no-equations"])
def test_from_inequalities_names_a_row_of_the_wrong_length(ineqs, eqs, named):
  with pytest.raises(ValueError, match=re.escape(named)):
    Cone.from_inequalities(ineqs, eqs, 2)


small_vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))


@given(st.lists(small_vec, min_size=0, max_size=5))
@settings(max_examples=120, deadline=None)
def test_canonical_form_is_idempotent(gens):
  c = Cone.from_rays(gens, 3)
  again = Cone.from_rays(list(c.rays) + [b for b in c.lineality_basis]
                         + [tuple(-x for x in b) for b in c.lineality_basis], 3)
  assert again == c
  for r in c.rays:
    assert c.contains(r)


@given(st.lists(small_vec, min_size=0, max_size=4))
@settings(max_examples=80, deadline=None)
def test_double_dual_is_identity(gens):
  c = Cone.from_rays(gens, 3)
  assert dual_cone(dual_cone(c)) == c


@given(st.lists(small_vec, min_size=1, max_size=4),
       st.lists(small_vec, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_intersect_commutes_and_is_contained(g1, g2):
  a = Cone.from_rays(g1, 3)
  b = Cone.from_rays(g2, 3)
  c = intersect(a, b)
  assert c == intersect(b, a)
  assert a.contains_cone(c) and b.contains_cone(c)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4)),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hilbert_basis_is_irredundant(gens):
  c = Cone.from_rays(gens, 2)
  if not c.is_strictly_convex:
    return
  hb = hilbert_basis(c)
  assert set(c.rays) <= set(hb)
  for x in hb:
    assert c.contains(x)
  # no element is the sum of two others
  hbset = set(hb)
  for a, b in itertools.combinations_with_replacement(hb, 2):
    s = tuple(u + v for u, v in zip(a, b))
    assert s not in hbset
