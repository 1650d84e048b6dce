"""A Fan is canonical by construction, and the results built directly are
fans of maximal cones.

Fan(d, cones) drops repeats, checks ranks, turns no cones into the zero
cone and sorts, so it equals Fan.make(cones, d) whenever no cone lies in
another.  star_subdivision, product_fan, complete_2d and resolve_2d build
their results that way, without Fan.make's filter; on seeded fans (the
gallery's, criterion-11 fans and their completions, random star
subdivisions and products of ranks 2-5) every result is checked to be
unchanged by the filter.  The per-gap completion is compared with the old
restarting one of resolution_reference.py on seeded valid rank-2 fans.
"""

import functools
import itertools
import random

import pytest

from logfan.cone import Cone
from logfan.cone import faces as cone_faces
from logfan.fan import (
    Fan,
    complete_2d,
    product_fan,
    resolve_2d,
    star_subdivision,
    validate,
)
from logfan.lattice import primitive

from covering_reference import gallery_fans, projective_fan, random_stars
from resolution_reference import (
    _ccw_cmp,
    _cross,
    criterion_11_fans,
    reference_complete_2d,
)


def cone(*rays):
  return Cone.from_rays(list(rays), len(rays[0]))


P2_CONES = [cone((1, 0), (0, 1)), cone((0, 1), (-1, -1)),
            cone((1, 0), (-1, -1))]
LINE_CONES = [cone((1, 0, 0)), cone((0, 1, 0)), cone((-1, 0, 0), (0, 0, 1))]


@pytest.mark.parametrize("cones", [P2_CONES, LINE_CONES])
def test_fan_ignores_order_and_repeats(cones):
  d = cones[0].ambient_rank
  want = Fan(d, tuple(cones))
  for k in range(len(cones)):
    for order in itertools.permutations(cones + cones[:k]):
      got = Fan(d, order)
      assert got == want
      assert got.max_cones == want.max_cones
      assert hash(got) == hash(want)
  assert len(want.max_cones) == len(cones)


def test_fan_is_canonical_also_for_cones_with_lineality():
  # same dimension and rays, different lineality
  a = Cone.from_rays([(0, 0, 1), (1, 0, 0), (-1, 0, 0)], 3)
  b = Cone.from_rays([(0, 0, 1), (0, 1, 0), (0, -1, 0)], 3)
  assert (a.dim, a.rays) == (b.dim, b.rays) and a != b
  assert Fan(3, (a, b)) == Fan(3, (b, a))
  assert Fan(3, (a, b)).max_cones == Fan(3, (b, a)).max_cones


@pytest.mark.parametrize("cones", [P2_CONES, LINE_CONES])
def test_fan_equals_make_when_no_cone_lies_in_another(cones):
  d = cones[0].ambient_rank
  for order in itertools.permutations(cones):
    assert Fan(d, order) == Fan.make(order, d)
    assert Fan(d, order).max_cones == Fan.make(order, d).max_cones


def test_fan_refuses_a_cone_of_another_rank():
  with pytest.raises(ValueError, match="cone of ambient rank 3 in a rank-2 fan"):
    Fan(2, (P2_CONES[0], cone((1, 0, 0))))
  with pytest.raises(ValueError, match="cone of ambient rank 2 in a rank-3 fan"):
    Fan.make(LINE_CONES + [P2_CONES[0]], 3)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fan_of_no_cones_is_the_zero_fan(d):
  assert Fan(d, ()) == Fan.make([], d)
  assert Fan(d, ()).max_cones == (Cone.from_rays([], d),)


def test_fan_stores_a_tuple():
  assert Fan(2, list(reversed(P2_CONES))).max_cones == Fan(2, P2_CONES).max_cones


def _maximal(f: Fan) -> bool:
  """Whether the filter of Fan.make leaves f as it is."""
  return Fan.make(f.max_cones, f.ambient_rank) == f


def _direct_results(f: Fan):
  """Every result of the direct builders on the valid fan f: the star
  subdivision at each cone of dimension >= 2 with smooth holders, the
  product with the complete fan of the line, and in rank 2 the completion
  and the resolution, also of the completion."""
  d = f.ambient_rank
  line = Fan(1, (cone((1,)), cone((-1,))))
  out = [product_fan(f, line), product_fan(line, f)]
  for tau in sorted(f.all_cones, key=lambda c: (c.dim, c.rays)):
    if tau.dim >= 2:
      try:
        out.append(star_subdivision(f, tau))
      except ValueError:
        pass  # a singular cone holds tau
  if d == 2:
    full = complete_2d(f)
    out += [full, resolve_2d(f)[0], resolve_2d(full)[0]]
  return out


def test_direct_results_on_gallery_fans_are_maximal():
  for f in gallery_fans():
    assert validate(f).ok
    for g in _direct_results(f):
      assert _maximal(g)


def test_direct_results_on_criterion_11_fans_are_maximal():
  for f in criterion_11_fans(random.Random(11), 30):
    for g in _direct_results(f):
      assert _maximal(g)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_stars_and_their_subdivisions_are_maximal(n):
  rng = random.Random(100 + n)
  for _ in range(3):
    for f in random_stars(rng, n, 3):
      assert _maximal(f)
    for g in _direct_results(f):
      assert _maximal(g)


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
                                   (1, 4)])
def test_product_fans_of_ranks_two_to_five_are_maximal(d1, d2):
  rng = random.Random(10 * d1 + d2)
  for f1, f2 in [(projective_fan(d1), projective_fan(d2)),
                 (random_stars(rng, d1, 2)[-1] if d1 > 1 else projective_fan(1),
                  random_stars(rng, d2, 2)[-1] if d2 > 1 else projective_fan(1))]:
    f = product_fan(f1, f2)
    assert f.ambient_rank == d1 + d2
    assert _maximal(f)
    # one maximal cone per pair of maximal cones of the factors
    assert len(f.max_cones) == len(f1.max_cones) * len(f2.max_cones)
    top = max(f.all_cones, key=lambda c: (c.dim, c.rays))
    assert _maximal(star_subdivision(f, top))


def _random_fan_2d(rng):
  """A seeded valid rank-2 fan: up to seven small primitive rays, a
  quarter of the time with the opposite of one, 2-cones on some
  consecutive pairs less than a half turn apart, and most rays kept."""
  rays = set()
  for _ in range(rng.randint(0, 6)):
    v = (rng.randint(-4, 4), rng.randint(-4, 4))
    if v != (0, 0):
      rays.add(primitive(v))
  if rays and rng.random() < 0.25:
    rays.add(tuple(-x for x in rng.choice(sorted(rays))))
  order = sorted(rays, key=functools.cmp_to_key(_ccw_cmp))
  cones = [Cone.from_rays([a, b], 2)
           for a, b in zip(order, order[1:] + order[:1])
           if _cross(a, b) > 0 and rng.random() < 0.5]
  cones += [Cone.from_rays([r], 2) for r in order if rng.random() < 0.8]
  return Fan.make(cones, 2)


EDGE_FANS = {
    "zero": Fan.make([], 2),
    "single-ray": Fan.make([cone((2, 3))], 2),
    "opposite-rays": Fan.make([cone((1, 0)), cone((-1, 0))], 2),
    "opposite-skew-rays": Fan.make([cone((2, -1)), cone((-2, 1))], 2),
    "cone-and-opposite-ray": Fan.make([cone((1, 0), (0, 1)),
                                       cone((-1, 0))], 2),
    "cone-and-its-negative": Fan.make([cone((1, 2), (3, 1)),
                                       cone((-1, -2), (-3, -1))], 2),
    "complete": Fan(2, tuple(P2_CONES)),
}


@pytest.mark.parametrize("name", sorted(EDGE_FANS))
def test_complete_2d_matches_the_restarting_completion_on_edge_fans(name):
  f = EDGE_FANS[name]
  assert validate(f).ok
  got = complete_2d(f)
  assert got == reference_complete_2d(f)
  assert got.max_cones == reference_complete_2d(f).max_cones


def test_complete_2d_matches_the_restarting_completion_on_seeded_fans():
  rng = random.Random(2024)
  sizes = set()
  for _ in range(10000):
    f = _random_fan_2d(rng)
    sizes.add(len(f.rays))
    got = complete_2d(f)
    assert got.max_cones == reference_complete_2d(f).max_cones
    assert all(c.dim == 2 for c in got.max_cones)
  assert sizes >= set(range(8))


def test_seeded_fans_are_valid_and_cover_every_kind_of_gap():
  """The seeded fans are fans, and their gaps include covered ones, ones
  under a half turn, exactly a half turn and over it."""
  rng = random.Random(2024)
  kinds = set()
  for _ in range(300):
    f = _random_fan_2d(rng)
    assert validate(f).ok
    covered = {c.rays for c in f.max_cones if c.dim == 2}
    order = sorted(f.rays, key=functools.cmp_to_key(_ccw_cmp))
    for s, t in zip(order, order[1:] + order[:1]):
      cr = _cross(s, t)
      kinds.add("covered" if cr > 0 and tuple(sorted((s, t))) in covered
                else "same" if s == t else (cr > 0) - (cr < 0))
  assert kinds == {"covered", "same", 1, 0, -1}


def test_all_cones_of_a_completion_are_faces_of_its_2_cones():
  f = complete_2d(Fan.make([cone((1, 0), (1, 3)), cone((-1, 0))], 2))
  twos = [c for c in f.max_cones if c.dim == 2]
  assert twos == list(f.max_cones)
  assert f.all_cones == frozenset(x for c in twos for x in cone_faces(c))
