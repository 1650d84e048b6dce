"""Tests for fans, fan maps, subdivisions, completion and resolution.

The rank-2 projective examples are small enough to write down by hand, so
most worked cases pin exact maximal cone lists.  The fiber product is
cross-checked against the brute-force pairwise-intersection oracle, and
the randomized blocks build arbitrary complete rank-2 fans out of random
rays to exercise completion, resolution and star subdivision together.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from logfan.cone import Cone, intersect
from logfan.cone import faces as cone_faces
from logfan.fan import (
    Fan,
    FanMap,
    _tiles,
    complete_2d,
    fiber_product,
    is_fan_map,
    product_fan,
    resolve_2d,
    search_refinement,
    star_subdivision,
    subdivision_predicates,
    support_query,
    validate,
)
from logfan.lattice import IntMatrix
from resolution_reference import insert_ray_2d

I1 = IntMatrix.identity(1)
I2 = IntMatrix.identity(2)


def mk(cone_rays, d):
  return Fan.make([Cone.from_rays(rs, d) for rs in cone_rays], d)


def cone2(*rays):
  return Cone.from_rays(list(rays), 2)


P1 = mk([[(1,)], [(-1,)]], 1)
ORTHANT = mk([[(1, 0), (0, 1)]], 2)
P2 = mk([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(1, 0), (-1, -1)]], 2)
P1XP1 = product_fan(P1, P1)


def test_make_drops_non_maximal_cones():
  f = Fan.make([cone2((1, 0)), cone2((1, 0), (0, 1))], 2)
  assert f == ORTHANT
  assert len(f.max_cones) == 1
  # a cone inside another of the same dimension goes, whichever comes
  # first, and so does one inside a cone with lineality
  inner = cone2((1, 0), (1, 1))
  assert Fan.make([inner, ORTHANT.max_cones[0]], 2) == ORTHANT
  assert Fan.make([ORTHANT.max_cones[0], inner], 2) == ORTHANT
  half = cone2((1, 0), (0, 1), (0, -1))
  assert Fan.make([inner, half, cone2((0, -1))], 2).max_cones == (half,)


def test_make_collapses_duplicates_and_ignores_order():
  cones = [c for m in P2.max_cones for c in cone_faces(m)] + list(P2.max_cones)
  assert Fan.make(cones + cones, 2) == P2
  rng = random.Random(4)
  for _ in range(5):
    rng.shuffle(cones)
    f = Fan.make(cones, 2)
    assert f == P2
    assert f.max_cones == P2.max_cones


def test_make_of_nothing_is_the_zero_fan():
  f = Fan.make([], 2)
  assert len(f.max_cones) == 1
  assert f.max_cones[0].dim == 0


def test_all_cones_is_the_face_closure():
  assert len(ORTHANT.all_cones) == 4
  assert len(P2.all_cones) == 1 + 3 + 3


def test_validate_p1():
  assert validate(P1).ok


def test_validate_single_smooth_cone():
  assert validate(ORTHANT).ok


def test_validate_flags_overlapping_pair():
  f = mk([[(1, 0), (1, 2)], [(1, 1), (0, 1)]], 2)
  rep = validate(f)
  assert not rep.ok
  assert len(rep.violations) == 1
  assert rep.violations[0][0] == "intersection not a common face"


def test_validate_reports_lineality_without_raising():
  half = cone2((1, 0), (0, 1), (0, -1))
  other = cone2((-1, 0), (-1, 1))
  for f in (Fan(2, (half, other)), Fan(2, (half,)),
            Fan(2, (half, cone2((-1, 0), (0, 1), (0, -1)), other))):
    rep = validate(f)
    assert not rep.ok
    assert [v[0] for v in rep.violations] == (
        ["not strictly convex"] * sum(not c.is_strictly_convex
                                      for c in f.max_cones))
  # the strictly convex cones are still tested in pairs
  rep = validate(Fan(2, (half, cone2((-1, 0), (-1, 2)), cone2((-1, 1), (0, 1)))))
  assert [v[0] for v in rep.violations] == [
      "not strictly convex", "intersection not a common face"]


def test_validate_accepts_the_projective_plane():
  assert validate(P2).ok


def test_support_of_the_affine_plane():
  sq = support_query(ORTHANT)
  assert sq.contains((2, 3))
  assert not sq.contains((-1, -1))
  assert not sq.is_complete


def test_support_complete_for_quadrant_fan():
  assert support_query(P1XP1).is_complete
  assert len(P1XP1.max_cones) == 4


def test_support_complete_for_projective_plane():
  sq = support_query(P2)
  assert sq.is_complete
  for v in [(5, 7), (-3, 2), (0, -9)]:
    assert sq.contains(v)


def test_support_point_length_checked():
  with pytest.raises(ValueError):
    support_query(P2).contains((1, 2, 3))


def test_fan_map_identity():
  assert is_fan_map(I2, P2, P2)
  assert is_fan_map(I2, ORTHANT, ORTHANT)


def test_fan_map_blowdown_projection():
  blp2 = mk([[(0, 1), (1, 1)], [(0, 1), (-1, -1)],
             [(1, 0), (1, 1)], [(1, 0), (-1, -1)]], 2)
  assert validate(blp2).ok
  phi = IntMatrix.from_rows([[1, -1]])
  assert is_fan_map(phi, blp2, P1)


def test_fan_map_negation_not_covered():
  neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
  assert not is_fan_map(neg, ORTHANT, ORTHANT)


def test_fan_map_shape_mismatch():
  with pytest.raises(ValueError):
    is_fan_map(I1, ORTHANT, ORTHANT)


def test_fan_map_type_rejects_non_map():
  with pytest.raises(ValueError):
    FanMap(IntMatrix.from_rows([[-1, 0], [0, -1]]), ORTHANT, ORTHANT)


def test_star_subdivision_of_orthant():
  st = star_subdivision(ORTHANT, cone2((1, 0), (0, 1)))
  assert st == mk([[(1, 0), (1, 1)], [(1, 1), (0, 1)]], 2)
  ps = subdivision_predicates(I2, st, ORTHANT)
  assert ps.is_partial_subdivision and ps.is_subdivision
  assert validate(st).ok


def test_star_subdivision_at_ray_is_identity():
  assert star_subdivision(ORTHANT, cone2((1, 0))) == ORTHANT


def test_star_subdivision_requires_membership():
  with pytest.raises(ValueError):
    star_subdivision(ORTHANT, cone2((1, 1)))


def test_star_subdivision_requires_smooth_holders():
  f = mk([[(1, 0), (1, 2)]], 2)
  with pytest.raises(ValueError):
    star_subdivision(f, cone2((1, 0), (1, 2)))
  with pytest.raises(ValueError):
    star_subdivision(f, cone2((1, 0)))


def _aper_fans():
  """The rank-2 instance of the pair of projective resolutions: S1 is the
  projective plane fan, S2 the quadrant fan, S3 their common refinement."""
  taup = cone2((0, 1), (-1, -1))
  tau = cone2((1, 0), (-1, -1))
  taupp = cone2((-1, 0), (0, -1))
  s3 = star_subdivision(star_subdivision(P2, taup), tau)
  return tau, taup, taupp, s3


def test_common_refinement_of_the_two_planes():
  tau, taup, taupp, s3 = _aper_fans()
  assert s3 == star_subdivision(P1XP1, taupp)
  assert s3 == mk([[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (-1, -1)],
                   [(-1, -1), (0, -1)], [(0, -1), (1, 0)]], 2)
  assert subdivision_predicates(I2, s3, P2).is_subdivision
  assert subdivision_predicates(I2, s3, P1XP1).is_subdivision


def test_partial_subdivision_without_support_equality():
  sub = mk([[(1, 0)]], 2)
  ps = subdivision_predicates(I2, sub, ORTHANT)
  assert ps.is_partial_subdivision
  assert not ps.is_subdivision


@pytest.mark.parametrize("src", [
    mk([[(1, 0), (1, 2)], [(2, 1), (0, 1)]], 2),
    # built directly: Fan.make would drop one cone of each sheet, since
    # each lies inside a cone of the other sheet
    Fan(2, tuple(cone2(*rs) for rs in [[(1, 0), (1, 1)], [(1, 1), (0, 1)],
                                       [(1, 0), (1, 2)], [(1, 2), (0, 1)]])),
], ids=["overlapping-pair", "two-sheet-cover"])
def test_source_that_is_not_a_fan_is_no_subdivision(src):
  assert not validate(src).ok
  ps = subdivision_predicates(I2, src, ORTHANT)
  assert ps.is_partial_subdivision
  assert not ps.is_subdivision


Q1, Q2 = cone2((1, 0), (0, 1)), cone2((0, 1), (-1, 0))
Q3, Q4 = cone2((-1, 0), (0, -1)), cone2((0, -1), (1, 0))
TILING_CASES = {
    # name: (pieces, container, whether they tile it)
    "quadrants": ([Q3, Q1, Q2, Q4], None, True),
    "quadrant-gap": ([Q3, Q1, Q2], None, False),
    # two complete fans with no ray in common: every wall is paired, but
    # each point is covered twice
    "double-cover": (list(P2.max_cones)
                     + [cone2((1, 1), (-1, 2)), cone2((-1, 2), (0, -1)),
                        cone2((0, -1), (1, 1))], None, False),
    # a fold over part of Q1: the walls at (1, 1) and (1, 3) are each shared
    # by two pieces on the same side, so part of Q1 is covered three times
    "fold": ([Q3, Q1, Q2, Q4, cone2((1, 1), (1, 3)), cone2((1, 1), (1, 2)),
              cone2((1, 2), (1, 3))], None, False),
    # the walls at (1, 0) and (0, 1) are each shared by three pieces
    "three-on-a-wall": ([Q3, Q2, Q4, Q1, cone2((1, 0), (1, 1)),
                         cone2((1, 1), (0, 1))], None, False),
    "split-quadrant": ([cone2((1, 0), (1, 1)), cone2((1, 1), (0, 1))], Q1, True),
    "half-quadrant": ([cone2((1, 0), (1, 1))], Q1, False),
    "ray-in-a-ray": ([cone2((1, 1))], cone2((1, 1)), True),
    "no-pieces": ([], Q1, False),
}


@pytest.mark.parametrize("name", sorted(TILING_CASES))
def test_wall_test_on_hand_made_configurations(name):
  pieces, container, tiles = TILING_CASES[name]
  assert _tiles(pieces, container) is tiles


def test_subdivision_predicates_above_rank_four():
  lines5 = product_fan(product_fan(P1XP1, P1XP1), P1)
  assert lines5.ambient_rank == 5
  assert support_query(lines5).is_complete
  I5 = IntMatrix.identity(5)
  ps = subdivision_predicates(I5, lines5, lines5)
  assert (ps.is_partial_subdivision, ps.is_subdivision) == (True, True)
  tau = Cone.from_rays([(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)], 5)
  star = star_subdivision(lines5, tau)
  assert len(star.max_cones) == len(lines5.max_cones) + 8
  ps = subdivision_predicates(I5, star, lines5)
  assert (ps.is_partial_subdivision, ps.is_subdivision) == (True, True)
  with pytest.raises(ValueError):
    subdivision_predicates(I5, lines5, star)


def test_subdivision_requires_fan_map():
  shifted = mk([[(1, 0), (-1, 2)]], 2)
  with pytest.raises(ValueError):
    subdivision_predicates(I2, shifted, ORTHANT)


def test_non_unimodular_map_is_not_partial():
  dbl = IntMatrix.from_rows([[2, 0], [0, 2]])
  ps = subdivision_predicates(dbl, ORTHANT, ORTHANT)
  assert not ps.is_partial_subdivision
  assert not ps.is_subdivision


def test_fiber_product_idempotent():
  leg = FanMap(I2, ORTHANT, ORTHANT)
  assert fiber_product(leg, leg) == ORTHANT
  pleg = FanMap(I2, P2, P2)
  assert fiber_product(pleg, pleg) == P2


def test_fiber_product_merges_two_orthant_subdivisions():
  a = mk([[(1, 0), (1, 1)], [(1, 1), (0, 1)]], 2)
  b = mk([[(1, 0), (1, 2)], [(1, 2), (0, 1)]], 2)
  fp = fiber_product(FanMap(I2, a, ORTHANT), FanMap(I2, b, ORTHANT))
  assert fp.rays == ((0, 1), (1, 0), (1, 1), (1, 2))
  assert fp == mk([[(1, 0), (1, 1)], [(1, 1), (1, 2)], [(1, 2), (0, 1)]], 2)


def test_fiber_product_matches_pairwise_intersection_oracle():
  a = mk([[(1, 0), (1, 1)], [(1, 1), (0, 1)]], 2)
  b = mk([[(1, 0), (1, 3)], [(1, 3), (0, 1)]], 2)
  fp = fiber_product(FanMap(I2, a, ORTHANT), FanMap(I2, b, ORTHANT))
  brute = Fan.make([intersect(x, y)
                    for x in a.max_cones for y in b.max_cones], 2)
  assert fp == brute


def test_fiber_product_needs_a_partial_subdivision_leg():
  dbl = IntMatrix.from_rows([[2, 0], [0, 2]])
  leg = FanMap(dbl, ORTHANT, ORTHANT)
  with pytest.raises(ValueError):
    fiber_product(leg, leg)


def test_fiber_product_requires_common_target():
  with pytest.raises(ValueError):
    fiber_product(FanMap(I2, ORTHANT, ORTHANT), FanMap(I2, P2, P2))


def test_product_fans():
  assert product_fan(P1, P1) == mk(
      [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
       [(0, -1), (1, 0)]], 2)
  a1 = mk([[(1,)]], 1)
  assert product_fan(a1, a1) == ORTHANT
  assert product_fan(P1, a1) == mk([[(1, 0), (0, 1)], [(-1, 0), (0, 1)]], 2)


def test_complete_2d_leaves_complete_input_alone():
  assert complete_2d(P1XP1) == P1XP1
  assert complete_2d(P2) == P2


def test_complete_2d_orthant():
  got = complete_2d(ORTHANT)
  assert got.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
  assert len(got.max_cones) == 4
  assert validate(got).ok
  assert support_query(got).is_complete
  assert ORTHANT.max_cones[0] in got.all_cones


def test_complete_2d_single_ray():
  got = complete_2d(mk([[(1, 0)]], 2))
  assert got.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
  assert support_query(got).is_complete


def test_complete_2d_rejects_other_ranks():
  with pytest.raises(ValueError):
    complete_2d(P1)


def test_resolve_2d_smooth_input_unchanged():
  got, steps = resolve_2d(P2)
  assert got == P2
  assert steps == []


def test_resolve_2d_single_insertions():
  got, steps = resolve_2d(mk([[(1, 0), (1, 2)]], 2))
  assert steps == [(1, 1)]
  assert got == mk([[(1, 0), (1, 1)], [(1, 1), (1, 2)]], 2)
  got2, steps2 = resolve_2d(mk([[(0, 1), (2, -1)]], 2))
  assert steps2 == [(1, 0)]
  assert got2 == mk([[(0, 1), (1, 0)], [(1, 0), (2, -1)]], 2)


def test_resolve_2d_chain_is_a_chain_of_subdivisions():
  start = mk([[(1, 0), (1, 5)], [(1, 5), (0, 1)]], 2)
  final, steps = resolve_2d(start)
  cur = start
  for ray in steps:
    nxt = insert_ray_2d(cur, ray)
    assert subdivision_predicates(I2, nxt, cur).is_subdivision
    cur = nxt
  assert cur == final
  assert all(c.dim < 2 or c.is_strictly_convex for c in final.max_cones)
  from logfan.cone import is_smooth
  assert all(is_smooth(c) for c in final.max_cones)


def test_resolve_2d_rejects_other_ranks():
  with pytest.raises(ValueError):
    resolve_2d(P1)


def test_search_refinement_trivial_and_single_step():
  assert search_refinement(P1XP1, P1XP1) == []
  taupp = cone2((-1, 0), (0, -1))
  st = star_subdivision(P1XP1, taupp)
  assert search_refinement(P1XP1, st, depth=2) == [taupp]


def test_search_refinement_two_planes_within_depth_two():
  steps = search_refinement(P2, P1XP1, depth=2)
  assert steps is not None
  assert len(steps) == 2
  cur = P2
  for tau in steps:
    cur = star_subdivision(cur, tau)
  assert is_fan_map(I2, cur, P1XP1)
  assert subdivision_predicates(I2, cur, P1XP1).is_subdivision


def test_search_refinement_depth_exhaustion_is_none():
  assert search_refinement(P2, P1XP1, depth=1) is None


def test_search_refinement_rejects_unequal_support():
  with pytest.raises(ValueError):
    search_refinement(ORTHANT, P1XP1)


def test_search_refinement_rejects_a_fan_that_overlaps_itself():
  overlapping = mk([[(1, 0), (0, 1)], [(1, 1), (-1, 0)]], 2)
  upper = mk([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], 2)
  with pytest.raises(ValueError, match="fan to refine is not a fan"):
    search_refinement(overlapping, upper)
  with pytest.raises(ValueError, match="goal fan is not a fan"):
    search_refinement(upper, overlapping)


def test_search_refinement_rejects_singular_input():
  sing = mk([[(1, 0), (1, 2)]], 2)
  with pytest.raises(ValueError):
    search_refinement(sing, sing)


def _random_complete_fan(rng):
  rays = set()
  for _ in range(rng.randint(1, 5)):
    v = (rng.randint(-4, 4), rng.randint(-4, 4))
    if v != (0, 0):
      from logfan.lattice import primitive
      rays.add(primitive(v))
  base = Fan.make([Cone.from_rays([r], 2) for r in sorted(rays)], 2)
  return complete_2d(base)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_complete_2d_random_outputs_are_complete_and_valid(seed):
  f = _random_complete_fan(random.Random(seed))
  assert validate(f).ok
  assert support_query(f).is_complete


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_resolve_2d_random_outputs_are_smooth_subdivisions(seed):
  from logfan.cone import is_smooth
  f = _random_complete_fan(random.Random(seed))
  res, steps = resolve_2d(f)
  assert all(is_smooth(c) for c in res.max_cones)
  assert validate(res).ok
  assert subdivision_predicates(I2, res, f).is_subdivision
  if not steps:
    assert res == f


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_star_subdivision_random_smooth_fans(seed):
  rng = random.Random(seed)
  f, _ = resolve_2d(_random_complete_fan(rng))
  twos = [c for c in f.max_cones if c.dim == 2]
  tau = twos[rng.randrange(len(twos))]
  st_fan = star_subdivision(f, tau)
  assert validate(st_fan).ok
  assert subdivision_predicates(I2, st_fan, f).is_subdivision
  assert support_query(st_fan).is_complete
