"""validate's wall path against the pairwise intersections it skips.

validate accepts full-dimensional strictly convex cones that pass the wall
test of _tiles on the whole space with no pair tested, and gives every
other input to the pair pass (_pair_pass).  Its report must equal that of
reference_validate, which intersects every pair: the same ok flag and the
same violations in the same order.  The families are complete fans of
ranks 1 to 5 (random star subdivisions of projective fans, product fans,
the completed resolutions of criterion 11), the gallery's fans, and
planted near-misses: a double cover that only the point of _tiles
catches, a cone split on one side of a wall only, an overlapping pair, a
complete fan with a cone dropped, cones with lineality, and
lower-dimensional cones, among them two crossing planar fans whose walls
pass.  Complete fans take the wall path and near-misses the pair pass; on
a complete 402-cone rank-2 fan and a complete 304-cone rank-3 fan validate
makes no _certified and no intersect call.
"""

import random

import pytest

from covering_reference import (
    gallery_fans,
    projective_fan,
    random_stars,
    reference_validate,
)
from resolution_reference import criterion_11_fans
from logfan import fan as fan_module
from logfan.cone import Cone
from logfan.fan import (
    Fan,
    _tiles,
    complete_2d,
    product_fan,
    resolve_2d,
    support_query,
    validate,
)


def _fan(d, cones):
  # Fan(...) keeps every cone given, nested or not
  return Fan(d, tuple(Cone.from_rays(c, d) for c in cones))


QUADRANTS = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
             [(0, -1), (1, 0)]]
# the quadrants turned by 45 degrees
TURNED = [[(1, 1), (-1, 1)], [(-1, 1), (-1, -1)], [(-1, -1), (1, -1)],
          [(1, -1), (1, 1)]]
OCTANTS = [[(a, 0, 0), (0, b, 0), (0, 0, c)]
           for a in (1, -1) for b in (1, -1) for c in (1, -1)]
# complete fans of the planes z = 0 and x = y, which cross in a line
FLAT = [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (-1, 0, 0)],
        [(-1, 0, 0), (0, -1, 0)], [(0, -1, 0), (1, 0, 0)]]
SLANTED = [[(1, 1, 2), (-1, -1, 1)], [(-1, -1, 1), (-1, -1, -2)],
           [(-1, -1, -2), (1, 1, -1)], [(1, 1, -1), (1, 1, 2)]]


def _complete_fans():
  rng = random.Random(17)
  p1, p2 = projective_fan(1), projective_fan(2)
  out = [("stars", p1)]
  out += [("stars", f) for n in (2, 3, 4, 5) for f in random_stars(rng, n, 3)]
  out += [("products", f) for f in (
      product_fan(p1, p1), product_fan(p1, p2), product_fan(p2, p2),
      product_fan(p1, random_stars(rng, 3, 2)[-1]),
      product_fan(p2, random_stars(rng, 3, 2)[-1]))]
  out += [("criterion 11", complete_2d(resolve_2d(f)[0]))
          for f in criterion_11_fans(rng, 12)]
  return out


def _near_misses():
  # the first octant split along (1, 1, 0), a ray inside its wall with the
  # octant below, which is left whole
  split = [c for c in OCTANTS if c != OCTANTS[0]] + [
      [(1, 0, 0), (1, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 1, 0), (0, 0, 1)]]
  half = [(1, 0), (-1, 0)]
  return [
      ("double cover", _fan(2, QUADRANTS + TURNED)),
      ("split on one side", _fan(3, split)),
      ("overlapping pair", _fan(2, [[(1, 0), (0, 1)], [(1, 1), (-1, 0)]])),
      ("one cone dropped", _fan(3, OCTANTS[1:])),
      ("one cone with lineality",
       _fan(2, [half + [(0, 1)], [(1, 0), (0, -1)], [(0, -1), (-1, 0)]])),
      ("two half-planes", _fan(2, [half + [(0, 1)], half + [(0, -1)]])),
      ("one lower-dimensional cone", _fan(2, QUADRANTS + [[(1, 2)]])),
      ("crossing planar fans", _fan(3, FLAT + SLANTED)),
  ]


COMPLETE = _complete_fans()
GALLERY = gallery_fans()
NEAR_MISSES = _near_misses()


def _count(monkeypatch, name):
  """Count the calls that fan.py makes to its name."""
  calls = []
  real = getattr(fan_module, name)
  monkeypatch.setattr(fan_module, name,
                      lambda *args: calls.append(args) or real(*args))
  return calls


def _assert_matches(fan):
  got, want = validate(fan), reference_validate(fan)
  assert got.ok == want.ok
  assert got.violations == want.violations
  return got


def test_families_hold_every_rank_and_both_answers():
  assert {f.ambient_rank for _, f in COMPLETE} == {1, 2, 3, 4, 5}
  assert all(reference_validate(f).ok for _, f in COMPLETE)
  oks = [reference_validate(f).ok for _, f in NEAR_MISSES]
  assert 0 < sum(oks) < len(oks)


@pytest.mark.parametrize("label, fan", COMPLETE,
                         ids=["%s-%d" % (label, i)
                              for i, (label, _) in enumerate(COMPLETE)])
def test_complete_fans_take_the_wall_path(monkeypatch, label, fan):
  assert support_query(fan).is_complete
  pairs = _count(monkeypatch, "_pair_pass")
  assert _assert_matches(fan).fallbacks == 0
  assert pairs == []


@pytest.mark.parametrize("fan", GALLERY,
                         ids=["gallery-%d" % i for i in range(len(GALLERY))])
def test_gallery_fans(monkeypatch, fan):
  pairs = _count(monkeypatch, "_pair_pass")
  _assert_matches(fan)
  walls = (all(c.is_strictly_convex for c in fan.max_cones)
           and support_query(fan).is_complete)
  assert (pairs == []) == walls


@pytest.mark.parametrize("label, fan", NEAR_MISSES,
                         ids=[label for label, _ in NEAR_MISSES])
def test_near_misses_take_the_pair_pass(monkeypatch, label, fan):
  pairs = _count(monkeypatch, "_pair_pass")
  _assert_matches(fan)
  assert len(pairs) == 1


def test_walls_pass_where_only_the_guards_refuse():
  # the lineality and dimension guards of validate are what send these two
  # to the pair pass
  cases = dict(NEAR_MISSES)
  for label in ("two half-planes", "crossing planar fans"):
    fan = cases[label]
    assert _tiles(fan.max_cones)
    assert not reference_validate(fan).ok


def _fan_402():
  cones = [[(1, k), (1, k + 1)] for k in range(-200, 200)]
  return _fan(2, cones + [[(1, 200), (-1, 0)], [(-1, 0), (1, -200)]])


def _fan_304():
  """The fan of P^3 after 150 star subdivisions at maximal cones, each
  cone replaced by the three cones on two of its rays and their sum."""
  e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
  cones = [e[:i] + e[i + 1:] for i in range(4)]
  for k in range(150):
    c = cones.pop(7 * k % len(cones))
    s = tuple(map(sum, zip(*c)))
    cones += [c[:i] + [s] + c[i + 1:] for i in range(3)]
  return _fan(3, cones)


@pytest.mark.parametrize("build", [_fan_402, _fan_304],
                         ids=["rank-2-402", "rank-3-304"])
def test_wall_path_tests_no_pair(monkeypatch, build):
  fan = build()
  assert len(fan.max_cones) in (402, 304)
  certified = _count(monkeypatch, "_certified")
  meets = _count(monkeypatch, "intersect")
  report = validate(fan)
  assert report.ok and report.violations == [] and report.fallbacks == 0
  assert support_query(fan).is_complete
  assert certified == [] and meets == []
