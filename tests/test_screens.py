"""Containment screened by sign patterns and decided on the stored incidence.

Fan.make runs contains_cone only on the pairs that pass its exact screens
(dimension, the coordinate half-spaces that hold each cone, the interior
point); it must drop exactly the cones that the all-pairs filter it
replaced (reference_make in covering_reference.py) drops, on seeded pools
built to get past the screens: nested cones of equal and of lower
dimension, cones on coordinate hyperplanes, lineality, the zero cone and
repeats, in ranks 1 to 5, every criterion-11 resolution step and every
pool the gallery hands to Fan.make.  is_face_of reads the closure of a ray
set off facet_rays (_is_face); it must agree with reference_is_face_of
(cone_reference.py) on every face of seeded cones and on non-faces of each
kind.  _holders maps the lineality of a source cone too; it must agree with
reference_holders on sources with lineality.  The work guards count calls:
Fan.make of a resolution step's own cones makes no contains_cone call, and
is_face_of makes no dot product.
"""

import random

import pytest

from logfan import cone as cone_module
from logfan.cone import Cone, _generators, faces, is_face_of
from logfan.fan import (
    Fan,
    FanMap,
    _holders,
    _ray_index,
    is_fan_map,
    product_fan,
    resolve_2d,
    subdivision_predicates,
    validate,
)
from logfan.gallery import run_gallery
from logfan.lattice import IntMatrix

from cone_reference import reference_is_face_of
from covering_reference import (
    projective_fan,
    random_stars,
    reference_holder_predicates,
    reference_holders,
    reference_is_fan_map,
    reference_make,
)
from resolution_reference import criterion_11_fans, insert_ray_2d
from test_cone_core import _count_calls, _vec


def _seeded_cone(rng, d):
  """A random cone of rank d: pointed, with lineality, or on a coordinate
  hyperplane."""
  gens = [_vec(rng, d, -2, 2) for _ in range(rng.randint(1, d + 2))]
  kind = rng.randrange(3)
  if kind == 1:
    v = _vec(rng, d, -2, 2)
    gens += [v, [-x for x in v]]
  elif kind == 2:
    i = rng.randrange(d)
    for g in gens:
      g[i] = 0
  return Cone.from_rays(gens, d)


def _inside(rng, sigma):
  """Cones inside sigma: a face, and a subcone of sigma's dimension on
  its interior point and all rays but one, with sigma's lineality."""
  d = sigma.ambient_rank
  lin = list(_generators((), sigma.lineality_basis))
  fs = faces(sigma)
  out = [fs[rng.randrange(len(fs))]]
  if sigma.rays:
    rest = list(sigma.rays)
    rest.pop(rng.randrange(len(rest)))
    out.append(Cone.from_rays(rest + [sigma.interior_point()] + lin, d))
  return out


def _past_the_screens(rng, sigma):
  """A cone that holds sigma's interior point but not sigma, where there
  is one: sigma's interior point with a vector outside sigma."""
  d = sigma.ambient_rank
  for _ in range(5):
    v = _vec(rng, d, -2, 2)
    if any(v) and not sigma.contains(v):
      return [Cone.from_rays([sigma.interior_point(), v], d)]
  return []


def _seeded_pools(d, count):
  rng = random.Random(700 + d)
  pools = []
  for _ in range(count):
    pool = []
    for _ in range(rng.randint(1, 4)):
      sigma = _seeded_cone(rng, d)
      pool.append(sigma)
      pool += _inside(rng, sigma)
      pool += _past_the_screens(rng, sigma)
    if rng.random() < 0.3:
      pool.append(Cone.from_rays([], d))
    if rng.random() < 0.3:
      pool.append(pool[rng.randrange(len(pool))])
    rng.shuffle(pool)
    pools.append(pool)
  return pools


def _resolution_pools():
  """The cones of each criterion-11 resolution step as the step builds
  them, and each step's cones together with those of the fan before it."""
  pools = []
  for fan in criterion_11_fans(random.Random(11), 15):
    cur = fan
    for ray in resolve_2d(fan)[1]:
      nxt = insert_ray_2d(cur, ray)
      split = []
      for c in cur.max_cones:
        if c.dim == 2 and c.contains(ray) and ray not in c.rays:
          split += [Cone.from_rays([c.rays[0], ray], 2),
                    Cone.from_rays([ray, c.rays[1]], 2)]
        else:
          split.append(c)
      pools += [split, list(nxt.max_cones) + list(cur.max_cones)]
      cur = nxt
  return pools


def _gallery_pools(monkeypatch):
  """Every pool of cones the gallery hands to Fan.make."""
  pools = []
  make = Fan.make

  def recorded(cones, ambient_rank):
    cones = list(cones)
    pools.append((cones, ambient_rank))
    return make(cones, ambient_rank)

  monkeypatch.setattr(Fan, "make", staticmethod(recorded))
  run_gallery()
  monkeypatch.undo()
  return pools


def _dropped(pool, d):
  return len(set(pool)) - len(reference_make(pool, d).max_cones)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_make_matches_the_all_pairs_filter_on_seeded_pools(d):
  dropped = past = 0
  for pool in _seeded_pools(d, 40):
    assert Fan.make(pool, d) == reference_make(pool, d), pool
    dropped += _dropped(pool, d)
    past += sum(o.contains(c.interior_point()) and not o.contains_cone(c)
                for c in pool for o in pool)
  # nested cones are dropped, and some pairs pass the interior-point screen
  # only for contains_cone to reject them
  assert dropped > 40
  assert past > 0 or d == 1


def test_make_matches_the_all_pairs_filter_on_resolution_steps():
  pools = _resolution_pools()
  assert len(pools) > 50
  dropped = 0
  for pool in pools:
    assert Fan.make(pool, 2) == reference_make(pool, 2)
    dropped += _dropped(pool, 2)
  assert dropped > 0


def test_make_matches_the_all_pairs_filter_on_the_gallery(monkeypatch):
  pools = _gallery_pools(monkeypatch)
  assert len(pools) > 10
  for pool, d in pools:
    assert Fan.make(pool, d) == reference_make(pool, d)


def test_make_of_a_resolution_steps_own_cones_tests_no_pair(monkeypatch):
  steps = []
  for fan in criterion_11_fans(random.Random(12), 6):
    cur = fan
    for ray in resolve_2d(fan)[1]:
      cur = insert_ray_2d(cur, ray)
      steps.append(cur)
  assert len(steps) > 10
  calls = _count_calls(monkeypatch, Cone, "contains_cone")
  for step in steps:
    assert Fan.make(step.max_cones, 2) == step
  assert calls == []


def _non_faces(sigma):
  """Cones that are not faces of sigma, where sigma has them: an interior
  ray, a ray inside a facet, a cone on a ray inside a facet and a ray of
  sigma off it, and a proper subcone of a face of its dimension."""
  d = sigma.ambient_rank
  out = []
  if sigma.dim > 1:
    out.append(Cone.from_rays([sigma.interior_point()], d))
  for f in faces(sigma):
    if len(f.rays) < 2:
      continue
    x = f.interior_point()
    if f.dim == sigma.dim - 1:
      out.append(Cone.from_rays([x], d))
      off = [r for r in sigma.rays if r not in f.rays]
      out.append(Cone.from_rays([x, off[0]], d))
    out.append(Cone.from_rays(list(f.rays[1:]) + [x], d))
  return out


def _face_test_cones():
  """Strictly convex seeded cones of ranks 1 to 5, lower-dimensional ones,
  and single rays."""
  out = [Cone.from_rays([(1, 0)], 2), Cone.from_rays([(2, -3, 1)], 3),
         Cone.from_rays([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3),
         Cone.from_rays([(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1),
                         (1, 1, 1, 1)], 4)]
  rng = random.Random(800)
  for d in (1, 2, 3, 4, 5):
    kept = 0
    while kept < 8:
      gens = [_vec(rng, d, -2, 2) for _ in range(rng.randint(1, d + 3))]
      sigma = Cone.from_rays(gens, d)
      if sigma.is_strictly_convex:
        out.append(sigma)
        kept += 1
  return out


def _face_test_pairs():
  pairs = []
  cones = _face_test_cones()
  for sigma in cones:
    d = sigma.ambient_rank
    others = [c for c in cones if c.ambient_rank == d and c.is_strictly_convex]
    for gamma in faces(sigma) + _non_faces(sigma) + others[:4]:
      pairs.append((gamma, sigma))
  return pairs


def test_is_face_of_matches_the_reference():
  answers = {True: 0, False: 0}
  low = single = 0
  for gamma, sigma in _face_test_pairs():
    got = is_face_of(gamma, sigma)
    assert got == reference_is_face_of(gamma, sigma), (gamma, sigma)
    answers[got] += 1
    low += sigma.dim < sigma.ambient_rank
    single += sigma.dim == 1
  assert answers[True] > 200 and answers[False] > 100
  assert low > 0 and single > 0
  # every non-face kind is refused
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
  for gamma in _non_faces(sigma):
    assert not is_face_of(gamma, sigma)
  assert is_face_of(Cone.from_rays([], 3), sigma)


def test_is_face_of_takes_no_dot_product(monkeypatch):
  pairs = _face_test_pairs()
  dots = _count_calls(monkeypatch, cone_module, "_dot")
  for gamma, sigma in pairs:
    is_face_of(gamma, sigma)
  assert dots == []


UPPER = Cone.from_rays([(0, 1), (1, 0), (-1, 0)], 2)
QUADRANTS = Fan(2, (Cone.from_rays([(1, 0), (0, 1)], 2),
                    Cone.from_rays([(-1, 0), (0, 1)], 2)))


def test_a_half_plane_is_not_held_by_two_quadrants():
  ident = IntMatrix.identity(2)
  source = Fan(2, (UPPER,))
  got = _holders(ident, source.max_cones, QUADRANTS,
                 _ray_index(QUADRANTS.max_cones))
  assert got == [([(0, 1), (1, 0), (-1, 0)], [])]
  assert got == reference_holders(ident, source, QUADRANTS)
  assert not is_fan_map(ident, source, QUADRANTS)
  with pytest.raises(ValueError):
    FanMap(ident, source, QUADRANTS)
  with pytest.raises(ValueError, match="not a fan map"):
    subdivision_predicates(ident, source, QUADRANTS)
  # the half-plane fan itself holds it, and is subdivided by the quadrants
  upper = Fan(2, (UPPER,))
  p = subdivision_predicates(ident, QUADRANTS, upper)
  assert (p.is_partial_subdivision, p.is_subdivision) == (True, True)
  p = subdivision_predicates(ident, upper, upper)
  assert (p.is_partial_subdivision, p.is_subdivision) == (True, True)


def _line(n=1):
  e = tuple(int(i == 0) for i in range(n))
  return Fan(n, (Cone.from_rays([e, tuple(-x for x in e)], n),))


def _lineality_maps():
  """(matrix, source with lineality, target) triples: a line times a fan
  into that fan's relatives, under identities, projections and shears."""
  rng = random.Random(900)
  out = []
  for chain in ([projective_fan(1)], random_stars(rng, 2, 2),
                random_stars(rng, 3, 2)):
    for fan in chain:
      m = fan.ambient_rank
      src = product_fan(_line(), fan)
      d = src.ambient_rank
      ident = IntMatrix.identity(d)
      others = [product_fan(_line(), f) for f in chain]
      flat = Fan(d, tuple(Cone.from_rays(
          [(0,) + tuple(r) for r in c.rays] + [(1,) + (0,) * m], d)
          for c in fan.max_cones))
      for dst in others + [flat, product_fan(projective_fan(1), fan)]:
        out.append((ident, src, dst))
        out.append((ident, dst, src))
      drop = IntMatrix.from_rows([[int(j == i + 1) for j in range(d)]
                                  for i in range(m)])
      for f in chain:
        out.append((drop, src, f))
      rows = [[int(i == j) for j in range(d)] for i in range(d)]
      rows[0][1] = 1
      shear = IntMatrix.from_rows(rows)
      for dst in others:
        out.append((shear, src, dst))
  return out


def test_holders_match_all_pairs_on_sources_with_lineality():
  outcomes = set()
  held_any = 0
  for matrix, src, dst in _lineality_maps():
    got = _holders(matrix, src.max_cones, dst, _ray_index(dst.max_cones))
    want = reference_holders(matrix, src, dst)
    if validate(dst).ok:
      assert got == want
    else:
      # a target with lineality is not a fan: only true holders are listed
      for (imgs, held), (want_imgs, want_held) in zip(got, want):
        assert imgs == want_imgs
        assert set(held) <= set(want_held)
        assert bool(held) == bool(want_held)
    held_any += sum(bool(held) for _, held in got)
    assert is_fan_map(matrix, src, dst) == reference_is_fan_map(matrix, src, dst)
    try:
      p = subdivision_predicates(matrix, src, dst)
      flags = p.is_partial_subdivision, p.is_subdivision
    except ValueError:
      flags = "not a fan map"
    try:
      q = reference_holder_predicates(matrix, src, dst)
      want_flags = q.is_partial_subdivision, q.is_subdivision
    except ValueError:
      want_flags = "not a fan map"
    assert flags == want_flags
    outcomes.add(flags)
  assert held_any > 50
  assert {(True, True), (False, False), "not a fan map"} <= outcomes
