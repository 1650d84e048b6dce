"""Tests for toric pairs with boundary: strata counts, blow-ups, log modifications.

Strata are counted without listing them (_subset_counts); the listing they
replaced, every subset of each maximal cone's boundary rays, is kept here
as reference_strata_counts and compared on seeded pairs and set families.
"""

import itertools
import math
import random
import time

import pytest

from logfan.cone import Cone
from logfan.fan import Fan, product_fan, star_subdivision
from logfan.lattice import IntMatrix
from logfan.logpair import (
    ToricLogPair,
    _subset_counts,
    admissible_blowup,
    boundary_strata_counts,
    is_log_modification,
    make_pair,
    product,
)


def cone2(*rays):
  return Cone.from_rays([list(r) for r in rays], 2)


def fan1(*rays):
  return Fan.make([Cone.from_rays([list(r)], 1) for r in rays], 1)


P1 = fan1((1,), (-1,))
BOX = make_pair(P1, [(-1,)])
A1 = make_pair(fan1((1,)), [])
ORTHANT_FAN = Fan.make([cone2((1, 0), (0, 1))], 2)
P2 = Fan.make([cone2((1, 0), (0, 1)), cone2((0, 1), (-1, -1)),
               cone2((1, 0), (-1, -1))], 2)


def test_make_pair_accepts_empty_boundary():
  p = make_pair(P2, [])
  assert p.boundary_rays == ()
  assert p.boundary_subfan.max_cones == (Cone.from_rays([], 2),)


def test_make_pair_rejects_non_ray():
  with pytest.raises(ValueError, match="not a ray"):
    make_pair(ORTHANT_FAN, [(1, 1)])


def test_make_pair_rejects_singular_fan():
  singular = Fan.make([cone2((1, 0), (1, 2))], 2)
  with pytest.raises(ValueError, match="singular"):
    make_pair(singular, [(1, 0)])


def test_boundary_rays_are_sorted_and_deduped():
  p = ToricLogPair(P1, ((-1,), (-1,)))
  assert p.boundary_rays == ((-1,),)


def test_product_of_boxes():
  b2 = product(BOX, BOX)
  assert b2.fan == product_fan(P1, P1)
  assert b2.boundary_rays == ((-1, 0), (0, -1))
  assert cone2((-1, 0), (0, -1)) in b2.boundary_subfan.max_cones


def test_product_with_point_is_identity():
  point = make_pair(Fan.make([Cone.from_rays([], 0)], 0), [])
  assert product(BOX, point) == BOX


def test_product_box_with_affine_line():
  p = product(BOX, A1)
  assert p.boundary_rays == ((-1, 0),)


def test_strata_counts_box_squared():
  assert boundary_strata_counts(product(BOX, BOX)) == [2, 1]


def test_strata_counts_projective_plane_one_divisor():
  assert boundary_strata_counts(make_pair(P2, [(-1, -1)])) == [1, 0]


def test_strata_counts_empty_boundary():
  assert boundary_strata_counts(make_pair(P2, [])) == [0, 0]


def test_blowup_of_fully_boundary_orthant():
  p = make_pair(ORTHANT_FAN, [(1, 0), (0, 1)])
  bl = admissible_blowup(p, cone2((1, 0), (0, 1)))
  assert len(bl.fan.max_cones) == 2
  assert bl.boundary_rays == ((0, 1), (1, 0), (1, 1))
  # every ray is a boundary ray, so the boundary subfan is the whole fan
  assert bl.boundary_subfan == bl.fan


def test_blowup_with_one_boundary_axis():
  p = make_pair(ORTHANT_FAN, [(1, 0)])
  bl = admissible_blowup(p, cone2((1, 0), (0, 1)))
  assert bl.boundary_rays == ((1, 0), (1, 1))
  assert bl.boundary_subfan.max_cones == (cone2((1, 0), (1, 1)),)


def test_blowup_at_boundary_ray_changes_nothing():
  p = make_pair(ORTHANT_FAN, [(1, 0)])
  bl = admissible_blowup(p, Cone.from_rays([[1, 0]], 2))
  assert bl == p


def test_blowup_rejects_center_off_the_boundary():
  p = make_pair(ORTHANT_FAN, [(0, 1)])
  with pytest.raises(ValueError, match="non-admissible"):
    admissible_blowup(p, Cone.from_rays([[1, 0]], 2))


def test_blowup_rejects_cone_outside_fan():
  p = make_pair(ORTHANT_FAN, [(1, 0)])
  with pytest.raises(ValueError, match="not a cone of the fan"):
    admissible_blowup(p, cone2((1, 0), (1, 1)))


def test_blowup_adds_exactly_one_ray():
  b2 = product(BOX, BOX)
  bl = admissible_blowup(b2, cone2((-1, 0), (0, -1)))
  assert set(bl.fan.rays) - set(b2.fan.rays) == {(-1, -1)}
  assert boundary_strata_counts(bl) == [3, 2]


def test_log_modification_identity():
  b2 = product(BOX, BOX)
  assert is_log_modification(IntMatrix.identity(2), b2, b2)


def test_log_modification_accepts_admissible_blowup():
  b2 = product(BOX, BOX)
  bl = admissible_blowup(b2, cone2((-1, 0), (0, -1)))
  assert is_log_modification(IntMatrix.identity(2), bl, b2)


def test_log_modification_composes():
  b2 = product(BOX, BOX)
  bl1 = admissible_blowup(b2, cone2((-1, 0), (0, -1)))
  bl2 = admissible_blowup(bl1, cone2((-1, -1), (0, -1)))
  assert is_log_modification(IntMatrix.identity(2), bl2, bl1)
  assert is_log_modification(IntMatrix.identity(2), bl2, b2)


def test_log_modification_rejects_face_subfan():
  b2 = product(BOX, BOX)
  part = make_pair(Fan.make([cone2((1, 0), (0, 1))], 2), [])
  assert not is_log_modification(IntMatrix.identity(2), part, b2)


def test_log_modification_needs_matching_boundary():
  b2 = product(BOX, BOX)
  bl = admissible_blowup(b2, cone2((-1, 0), (0, -1)))
  stripped = ToricLogPair(bl.fan, ((-1, 0), (0, -1)))
  assert not is_log_modification(IntMatrix.identity(2), stripped, b2)


def test_log_modification_through_coordinate_swap():
  p = make_pair(ORTHANT_FAN, [(1, 0)])
  q = make_pair(ORTHANT_FAN, [(0, 1)])
  swap = IntMatrix.from_rows([[0, 1], [1, 0]])
  assert is_log_modification(swap, p, q)
  assert not is_log_modification(IntMatrix.identity(2), p, q)


def test_log_modification_rejects_non_fan_map():
  p = make_pair(P2, [])
  sub = make_pair(Fan.make(
      [cone2((1, 0), (1, 1)), cone2((1, 1), (0, 1)),
       cone2((0, 1), (-1, -1)), cone2((1, 0), (-1, -1))], 2), [])
  bad = IntMatrix.from_rows([[2, 1], [1, 1]])
  with pytest.raises(ValueError, match="not a fan map"):
    is_log_modification(bad, sub, p)


def _with_leading_one(counts):
  return [1] + list(counts)


@pytest.mark.parametrize("left,right", [
    (BOX, BOX),
    (BOX, make_pair(P2, [(-1, -1)])),
    (make_pair(P2, [(0, 1), (-1, -1)]), BOX),
    (admissible_blowup(product(BOX, BOX), cone2((-1, 0), (0, -1))), BOX),
])
def test_strata_counts_convolve_under_product(left, right):
  cl = _with_leading_one(boundary_strata_counts(left))
  cr = _with_leading_one(boundary_strata_counts(right))
  got = _with_leading_one(boundary_strata_counts(product(left, right)))
  n = len(got) - 1
  for a in range(n + 1):
    expect = sum(cl[i] * cr[a - i]
                 for i in range(a + 1) if i < len(cl) and a - i < len(cr))
    assert got[a] == expect


def test_subfan_of_iterated_blowups_stays_inside_boundary():
  p = make_pair(ORTHANT_FAN, [(1, 0), (0, 1)])
  for _ in range(3):
    target = next(c for c in p.fan.max_cones)
    p = admissible_blowup(p, target)
  assert p.boundary_subfan == p.fan
  n = len(p.boundary_rays)
  assert boundary_strata_counts(p)[0] == n


def reference_strata_counts(pair):
  """Boundary strata counts by listing the distinct subsets of each maximal
  cone's boundary rays: 2^k subsets for a cone with k boundary rays."""
  b = set(pair.boundary_rays)
  strata = set()
  for c in pair.fan.max_cones:
    on = [r for r in c.rays if r in b]
    strata.update(s for a in range(len(on))
                  for s in itertools.combinations(on, a + 1))
  return [sum(len(s) == a for s in strata)
          for a in range(1, pair.fan.ambient_rank + 1)]


def test_subset_counts_agree_with_listing_on_seeded_families():
  rng = random.Random(16)
  for _ in range(300):
    n = rng.randint(1, 7)
    sets = [frozenset(rng.sample(range(n + 2), rng.randint(0, n)))
            for _ in range(rng.randint(0, 8))]
    if sets and rng.random() < 0.3:
      sets.append(sets[0])  # a repeat
    if sets and rng.random() < 0.3:
      sets.append(frozenset(list(sets[-1])[:1]))  # a set inside another
    listed = {sub for s in sets for a in range(1, len(s) + 1)
              for sub in itertools.combinations(sorted(s), a)}
    want = [sum(len(x) == a for x in listed) for a in range(1, n + 1)]
    assert _subset_counts(sets, n) == want, sets


def _seeded_pairs(rng):
  box3 = product(product(BOX, BOX), BOX)
  for _ in range(12):
    pair = box3 if rng.random() < 0.5 else product(BOX, BOX)
    for _ in range(rng.randint(0, 3)):
      tau = rng.choice([c for c in pair.fan.max_cones
                        if set(c.rays) & set(pair.boundary_rays)])
      pair = admissible_blowup(pair, tau)
    rays = list(pair.fan.rays)
    yield make_pair(pair.fan, rng.sample(rays, rng.randint(0, len(rays))))


def test_strata_counts_agree_with_the_listing_on_seeded_pairs():
  pairs = list(_seeded_pairs(random.Random(17)))
  assert max(len(p.fan.max_cones) for p in pairs) >= 8
  for pair in pairs:
    assert boundary_strata_counts(pair) == reference_strata_counts(pair)


def test_strata_of_a_rank_64_orthant_are_counted_not_listed():
  # the listing took 6 s at rank 20 and grows as 2^rank
  d = 64
  units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
  pair = make_pair(Fan(d, (Cone.from_rays(units, d),)), units)
  start = time.perf_counter()
  assert boundary_strata_counts(pair) == [math.comb(d, a)
                                          for a in range(1, d + 1)]
  assert time.perf_counter() - start < 1.0
