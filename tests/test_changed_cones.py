"""The refinement checks of logfan.fan pay only for the cones that changed.

Under the identity matrix, is_fan_map and subdivision_predicates search
holders only for the source cones that are not target cones, and run the
wall test only on the target cones that are not source cones (_changed).
Under any other matrix nothing is skipped.  The answers must equal those
of the all-pairs holder search kept in covering_reference, on every
resolution step of acceptance criterion 11 in both directions, on star
subdivision chains of ranks 2 to 4 (with a cone taken out of the finer fan
as well), on fans with lineality, on equal fans and on zero fans, and under
shears of shared cones.  is_fan_map must also equal the reference on
targets that are not fans.  A work guard shows that a resolution step asks
_holders about the two split cones only and runs _tiles once.

A target that lists a face of one of its cones (Fan(...) keeps it, and
validate accepts it) must get the answer of its Fan.make, which drops the
face: such a face gets no wall test of its own.  The all-pairs references
were not changed for this, so they are compared on Fan.make'd targets
only.
"""

import random

import pytest

from covering_reference import (
    projective_fan,
    random_stars,
    reference_holder_predicates,
    reference_is_fan_map,
)
from resolution_reference import criterion_11_fans, insert_ray_2d
from logfan import fan as fan_module
from logfan.cone import Cone
from logfan.fan import (
    Fan,
    is_fan_map,
    product_fan,
    resolve_2d,
    subdivision_predicates,
    validate,
)
from logfan.lattice import IntMatrix


def _ident(fan):
  return IntMatrix.identity(fan.ambient_rank)


def _flags(predicate, matrix, src, dst):
  try:
    got = predicate(matrix, src, dst)
  except ValueError:
    return "not a fan map"
  return got.is_partial_subdivision, got.is_subdivision


def _shear(n):
  """The identity with a 1 added above the diagonal in the first row."""
  return IntMatrix.from_rows([[int(i == j or (i, j) == (0, 1))
                               for j in range(n)] for i in range(n)])


def _line(n=1):
  e = tuple(int(i == 0) for i in range(n))
  return Fan(n, (Cone.from_rays([e, tuple(-x for x in e)], n),))


def _resolution_steps(rng, count):
  """(finer, coarser) for every step of the resolutions of criterion 11."""
  out = []
  for fan in criterion_11_fans(rng, count):
    _, steps = resolve_2d(fan)
    cur = fan
    for ray in steps:
      nxt = insert_ray_2d(cur, ray)
      out.append((nxt, cur))
      cur = nxt
  return out


def _star_pairs(rng):
  """(finer, coarser) along star subdivision chains of ranks 2 to 4, and
  each finer fan with one of its new cones taken out."""
  out = []
  for n in (2, 3, 4):
    for _ in range(3):
      chain = random_stars(rng, n, 3)
      for fine, coarse in list(zip(chain[1:], chain)) + [(chain[-1], chain[0])]:
        out.append((fine, coarse))
        new = [c for c in fine.max_cones if c not in coarse.max_cones]
        holed = tuple(c for c in fine.max_cones if c != new[0])
        out.append((Fan(n, holed), coarse))
  return out


def _lineality_pairs(rng):
  """Pairs of products of a line with the fans of star chains."""
  out = []
  for n in (1, 2, 3):
    chain = [projective_fan(1)] if n == 1 else random_stars(rng, n, 2)
    prods = [product_fan(_line(), f) for f in chain]
    out += list(zip(prods[1:], prods)) + [(prods[-1], prods[0])]
  return out


def _equal_and_zero():
  out = []
  for n in (1, 2, 3):
    zero = Fan(n, ())
    fans = [zero, projective_fan(n)]
    if n > 1:
      fans.append(random_stars(random.Random(n), n, 2)[-1])
    for f in fans:
      out += [(f, f), (zero, f), (f, zero)]
  return out


def _pairs():
  rng = random.Random(29)
  return (_resolution_steps(rng, 20) + _star_pairs(rng)
          + _lineality_pairs(rng) + _equal_and_zero())


def test_changed_cones_agree_with_all_pairs():
  outcomes = set()
  shared = 0
  for fine, coarse in _pairs():
    for src, dst in ((fine, coarse), (coarse, fine)):
      m = _ident(src)
      assert is_fan_map(m, src, dst) == reference_is_fan_map(m, src, dst)
      flags = _flags(subdivision_predicates, m, src, dst)
      assert flags == _flags(reference_holder_predicates, m, src, dst), (
          [c.rays for c in src.max_cones], [c.rays for c in dst.max_cones])
      outcomes.add(flags)
      shared += bool(set(src.max_cones) & set(dst.max_cones))
  assert {(True, True), (True, False), "not a fan map"} <= outcomes
  assert shared > 300


def test_a_shear_skips_no_shared_cone():
  # the shared cones are not their own images under a shear, so nothing
  # may be skipped; the zero fan and the fans whose cones the shear only
  # permutes must keep their answers too
  outcomes = set()
  for fine, coarse in _pairs():
    g = _shear(fine.ambient_rank) if fine.ambient_rank > 1 else _ident(fine)
    for src, dst in ((fine, coarse), (coarse, fine), (fine, fine)):
      assert is_fan_map(g, src, dst) == reference_is_fan_map(g, src, dst)
      flags = _flags(subdivision_predicates, g, src, dst)
      assert flags == _flags(reference_holder_predicates, g, src, dst)
      outcomes.add(flags)
  assert {(True, True), (True, False), "not a fan map"} <= outcomes


def test_is_fan_map_on_targets_that_are_not_fans():
  rng = random.Random(30)
  cases = []
  for n in (2, 3, 4):
    chain = random_stars(rng, n, 3)
    fine, coarse = chain[-1], chain[0]
    # nested: a subdivided fan with a coarse cone put back
    for extra in [c for c in coarse.max_cones if c not in fine.max_cones][:2]:
      bad = Fan(n, fine.max_cones + (extra,))
      cases += [(fine, bad), (coarse, bad), (bad, fine), (bad, coarse)]
  overlap = Fan(2, (Cone.from_rays([(1, 0), (1, 2)], 2),
                    Cone.from_rays([(1, 1), (0, 1)], 2)))
  for src in (Fan(2, (Cone.from_rays([(1, 0), (0, 1)], 2),)),
              Fan(2, (Cone.from_rays([(1, 0), (1, 2)], 2),)),
              Fan(2, (Cone.from_rays([(1, 1), (1, 2)], 2),)), overlap):
    cases += [(src, overlap), (overlap, src)]
  answers = set()
  for src, dst in cases:
    assert not (validate(src).ok and validate(dst).ok)
    for m in (_ident(src), _shear(src.ambient_rank)):
      got = is_fan_map(m, src, dst)
      assert got == reference_is_fan_map(m, src, dst)
      answers.add(got)
  assert answers == {True, False}


def test_a_wrong_shape_is_refused_also_on_equal_fans():
  fan = projective_fan(2)
  for m in (IntMatrix.identity(3), IntMatrix.identity(1),
            IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])):
    for predicate in (is_fan_map, subdivision_predicates):
      with pytest.raises(ValueError, match="does not map"):
        predicate(m, fan, fan)
  with pytest.raises(ValueError, match="does not map"):
    is_fan_map(IntMatrix.identity(2), projective_fan(3), fan)


def test_a_resolution_step_searches_and_tiles_only_the_split_cone(monkeypatch):
  asked, tiled = [], []
  real_holders, real_tiles = fan_module._holders, fan_module._tiles

  def holders(matrix, cones, target, index):
    asked.append(list(cones))
    return real_holders(matrix, cones, target, index)

  def tiles(pieces, container=None):
    tiled.append(container)
    return real_tiles(pieces, container)

  monkeypatch.setattr(fan_module, "_holders", holders)
  monkeypatch.setattr(fan_module, "_tiles", tiles)
  steps = _resolution_steps(random.Random(31), 6)
  assert len(steps) > 20
  for fine, coarse in steps:
    asked.clear()
    tiled.clear()
    p = subdivision_predicates(_ident(fine), fine, coarse)
    assert (p.is_partial_subdivision, p.is_subdivision) == (True, True)
    split = [c for c in fine.max_cones if c not in coarse.max_cones]
    assert len(split) == 2
    assert asked == [split]
    assert tiled == [c for c in coarse.max_cones if c not in fine.max_cones]
    assert len(tiled) == 1


def test_a_listed_face_of_a_target_cone_is_not_tiled_on_its_own():
  quadrant = Cone.from_rays([(1, 0), (0, 1)], 2)
  src = Fan(2, (quadrant,))
  dst = Fan(2, (quadrant, Cone.from_rays([(1, 0)], 2)))
  assert validate(dst).ok and len(dst.max_cones) == 2
  p = subdivision_predicates(_ident(src), src, dst)
  assert (p.is_partial_subdivision, p.is_subdivision) == (True, True)


def test_listed_faces_get_the_answer_of_the_fan_they_make():
  rng = random.Random(5)
  changed = total = 0
  for n in (2, 3, 4):
    for _ in range(5):
      chain = random_stars(rng, n, 3)
      for fine, coarse in zip(chain[1:], chain):
        for src, dst in ((fine, coarse), (coarse, fine), (fine, fine)):
          m = _ident(src)
          faces = sorted((c for c in dst.all_cones
                          if c not in dst.max_cones),
                         key=lambda c: (c.dim, c.rays))
          listed = Fan(n, dst.max_cones + tuple(
              rng.sample(faces, rng.randint(1, 3))))
          assert validate(listed).ok
          assert Fan.make(listed.max_cones, n) == dst
          want = _flags(subdivision_predicates, m, src, dst)
          assert want == _flags(reference_holder_predicates, m, src, dst)
          assert _flags(subdivision_predicates, m, src, listed) == want
          assert is_fan_map(m, src, listed) == is_fan_map(m, src, dst)
          # the all-pairs reference still tests each listed face on its own
          changed += (_flags(reference_holder_predicates, m, src, listed)
                      != want)
          total += 1
  assert total == 135 and changed > 40

