"""The common-face test of validate against the pairwise intersections it
replaced.

validate tries a separation certificate (_certified) on each pair of
maximal cones first and intersects only the pairs it leaves open.  On
seeded fans and non-fans of ranks 2 to 5 (the gallery's fans, star
subdivisions, random_stars, product fans, criterion-11 fans, overlap.json,
and collections with overlapping or nested cones) its report equals that
of reference_validate, which intersects every pair: the same ok flag and
the same violations in the same order.  A certificate never holds for a
pair whose intersection is not a common face.  On fans no pair is left
open, which fallbacks, the count of pairs that took the exact test, shows.
The certificate compares its two ray sets as bitsets through one map from
t's rays to s's (_same_rays), which must agree with comparing the ray
tuples, and the pair pass builds no ray tuple.  A fan that passes the wall
test skips the pair pass, so the fans whose pairs must all be certified
are given to the pair pass (_pair_pass) directly.
"""

import pathlib
import random

import pytest

from covering_reference import (
    gallery_fans,
    projective_fan,
    random_stars,
    reference_validate,
)
from resolution_reference import criterion_11_fans
from logfan.cli import parse_document
from logfan import cone as cone_module
from logfan import fan as fan_module
from logfan.cone import (Cone, _certified, _pick, _same_rays, intersect,
                         is_face_of)
from logfan.fan import (
    Fan,
    _pair_pass,
    product_fan,
    resolve_2d,
    star_subdivision,
    validate,
)

OVERLAP = pathlib.Path(__file__).parent / "fixtures" / "overlap.json"
P1 = projective_fan(1)
P2 = projective_fan(2)


def _overlap():
  return parse_document(OVERLAP.read_text()).fan()


def _random_cone(rng, d, pool):
  """A strictly convex cone on two to d + 1 vectors of pool, or None."""
  c = Cone.from_rays(rng.sample(pool, rng.randint(2, d + 1)), d)
  return c if c.is_strictly_convex else None


def _pool(rng, d, size):
  out = set()
  while len(out) < size:
    v = tuple(rng.randint(-2, 2) for _ in range(d))
    if any(v):
      out.add(v)
  return sorted(out)


def _collections(rng, d, count):
  """Collections of cones of rank d that overlap or nest, and some that
  happen to be fans: random cones on a small pool, and fans with a cone
  added on their own rays and one new vector."""
  out = []
  while len(out) < count:
    pool = _pool(rng, d, d + 3)
    cones = [c for c in (_random_cone(rng, d, pool)
                         for _ in range(rng.randint(2, 4))) if c]
    if len(cones) >= 2:
      # Fan(...) keeps a cone that lies in another
      out.append(Fan(d, tuple(cones)))
  for fan in random_stars(rng, d, 2):
    rays = list(fan.rays)
    extra = rng.sample(rays, d - 1) + [_pool(rng, d, 1)[0]]
    c = Cone.from_rays(extra, d)
    if c.is_strictly_convex:
      out.append(Fan(d, fan.max_cones + (c,)))
  return out


def _smooth_fans(rng):
  """Seeded smooth fans of ranks 2 to 4: random star subdivisions of the
  projective fans."""
  return [f for n in (2, 3, 4) for f in random_stars(rng, n, 3)]


def _products(rng):
  out = [product_fan(P1, P1), product_fan(P1, P2)]
  for a, b in ((1, 3), (2, 2), (2, 3), (3, 2), (1, 4)):
    left = random_stars(rng, a, 1)[-1] if a > 1 else P1
    right = random_stars(rng, b, 1)[-1]
    out.append(product_fan(left, right))
  return out


def _star_subdivisions(rng):
  out = []
  for fan in criterion_11_fans(rng, 8):
    resolved, _ = resolve_2d(fan)
    two = [c for c in resolved.all_cones if c.dim == 2]
    out += [resolved, star_subdivision(resolved, rng.choice(two))]
  return out


def _cases():
  rng = random.Random(13)
  cases = [("gallery", f) for f in gallery_fans()]
  cases += [("stars", f) for n in (2, 3, 4, 5) for f in random_stars(rng, n, 3)]
  cases += [("products", f) for f in _products(rng)]
  cases += [("star subdivisions", f) for f in _star_subdivisions(rng)]
  cases += [("criterion 11", f) for f in criterion_11_fans(rng, 20)]
  cases += [("overlap.json", _overlap())]
  cases += [("collections", f) for d in (2, 3, 4, 5)
            for f in _collections(rng, d, 12)]
  return cases


CASES = _cases()


def test_cases_hold_fans_and_non_fans():
  oks = [reference_validate(f).ok for _, f in CASES]
  assert sum(oks) >= 60 and len(oks) - sum(oks) >= 30
  bad = {label for (label, _), ok in zip(CASES, oks) if not ok}
  assert {"overlap.json", "collections"} <= bad


@pytest.mark.parametrize("label, fan", CASES,
                         ids=["%s-%d" % (label, i)
                              for i, (label, _) in enumerate(CASES)])
def test_validate_matches_pairwise_intersections(label, fan):
  got, want = validate(fan), reference_validate(fan)
  assert got.ok == want.ok
  assert got.violations == want.violations
  # a pair with a violation is always decided by the exact test
  assert got.fallbacks >= len([v for v in got.violations
                               if v[0] == "intersection not a common face"])


def _meets_in_common_face(s, t):
  w = intersect(s, t)
  return is_face_of(w, s) and is_face_of(w, t)


def test_certificate_never_holds_on_a_pair_without_a_common_face():
  rng = random.Random(29)
  counts = {True: 0, False: 0}
  certified = 0
  for d in (2, 3, 4, 5):
    for _ in range(250):
      pool = _pool(rng, d, d + 3)
      s, t = _random_cone(rng, d, pool), _random_cone(rng, d, pool)
      if s is None or t is None or s == t:
        continue
      truth = _meets_in_common_face(s, t)
      counts[truth] += 1
      for a, b in ((s, t), (t, s)):
        if _certified(a, b):
          certified += 1
          assert truth, (a.rays, b.rays)
  # the sample has both kinds of pair, and certificates that hold
  assert counts[False] >= 100 and counts[True] >= 100
  assert certified >= 100


def test_no_fallback_on_fans():
  rng = random.Random(7)
  fans = [P1, P2] + [f for f in gallery_fans() if validate(f).ok]
  fans += _products(rng) + _smooth_fans(rng)
  assert any(f.ambient_rank == 5 for f in fans)
  for fan in fans:
    report = _pair_pass(fan)
    assert report.ok
    assert report.fallbacks == 0, [c.rays for c in fan.max_cones]


def test_overlap_takes_one_fallback():
  report = validate(_overlap())
  assert not report.ok
  assert report.fallbacks == 1


def _same_by_tuples(s, t, a, b):
  return _pick(s.rays, a) == _pick(t.rays, b)


def test_same_rays_agrees_with_the_ray_tuples():
  rng = random.Random(41)
  pairs = 0
  for d in (2, 3, 4):
    for _ in range(60):
      pool = _pool(rng, d, d + 2)
      s, t = _random_cone(rng, d, pool), _random_cone(rng, d, pool)
      if s is None or t is None or not set(s.rays) & set(t.rays):
        continue
      pairs += 1
      where = {r: j for j, r in enumerate(s.rays)}
      to_s = [1 << where[r] if r in where else 0 for r in t.rays]
      equal = 0
      for a in range(1 << len(s.rays)):
        for b in range(1 << len(t.rays)):
          want = _same_by_tuples(s, t, a, b)
          assert _same_rays(a, b, to_s) == want, (s.rays, t.rays, a, b)
          equal += want
      # at least the empty sets and the shared rays match
      assert equal >= 2
  assert pairs >= 60


def test_validate_builds_no_ray_tuple(monkeypatch):
  # a complete rank-2 fan of 62 cones: every pair is certified, and once
  # each shrink built two ray tuples to compare
  cones = [Cone.from_rays([(1, k), (1, k + 1)], 2) for k in range(-30, 30)]
  cones += [Cone.from_rays([(1, 30), (-1, 0)], 2),
            Cone.from_rays([(-1, 0), (1, -30)], 2)]
  fan = Fan(2, tuple(cones))
  certified = []
  monkeypatch.setattr(fan_module, "_certified",
                      lambda *args: certified.append(args)
                      or _certified(*args))
  assert validate(fan).ok and certified == []
  calls = []
  monkeypatch.setattr(cone_module, "_pick",
                      lambda *args: calls.append(args) or _pick(*args))
  report = _pair_pass(fan)
  assert report.ok and report.fallbacks == 0
  assert len(certified) == len(cones) * (len(cones) - 1) // 2
  assert calls == []
