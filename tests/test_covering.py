"""The wall test of logfan.fan against independent covering oracles.

subdivision_predicates is compared with the section-volume algorithm kept
in covering_reference, on seeded rank-2 and rank-3 fan pairs whose answers
include both "subdivision" and "partial subdivision only".  The exact
completeness flag of support_query is compared with a 500-point sample of
the support, on the gallery's fans and on seeded complete and incomplete
fans of ranks 2 to 4.
"""

import random

from covering_reference import (
    gallery_fans,
    random_stars,
    reference_subdivision_predicates,
    sampled_completeness,
)
from resolution_reference import criterion_11_fans, insert_ray_2d
from logfan.fan import (
    Fan,
    complete_2d,
    resolve_2d,
    subdivision_predicates,
    support_query,
)
from logfan.gallery import run_gallery
from logfan.lattice import IntMatrix


def _outcome(predicate, src, dst):
  try:
    got = predicate(IntMatrix.identity(src.ambient_rank), src, dst)
  except ValueError:
    return "not a fan map"
  return got.is_partial_subdivision, got.is_subdivision


def _drop_one(rng, fan):
  cones = list(fan.max_cones)
  del cones[rng.randrange(len(cones))]
  return Fan.make(cones, fan.ambient_rank)


def _differential_pairs():
  rng = random.Random(20)
  pairs = []
  for case in run_gallery():
    for _, src, dst in case.fixtures.get("subdivisions", []):
      if src.ambient_rank in (2, 3):
        pairs += [(src, dst), (dst, src)]
  for fan in criterion_11_fans(rng, 12):
    resolved, steps = resolve_2d(fan)
    pairs += [(resolved, fan), (fan, resolved)]
    cur = fan
    for ray in steps:
      nxt = insert_ray_2d(cur, ray)
      pairs.append((nxt, cur))
      cur = nxt
    if not support_query(fan).is_complete:
      pairs.append((fan, complete_2d(fan)))
  for n in (2, 3):
    for _ in range(4):
      chain = random_stars(rng, n, 3)
      for coarse, fine in zip(chain, chain[1:]):
        pairs += [(fine, coarse), (coarse, fine)]
      pairs.append((_drop_one(rng, chain[-1]), chain[0]))
  return pairs


def test_wall_test_agrees_with_section_volumes():
  outcomes = set()
  for src, dst in _differential_pairs():
    got = _outcome(subdivision_predicates, src, dst)
    want = _outcome(reference_subdivision_predicates, src, dst)
    assert got == want, ([c.rays for c in src.max_cones],
                         [c.rays for c in dst.max_cones])
    outcomes.add(got)
  assert {(True, True), (True, False), "not a fan map"} <= outcomes


def test_completeness_of_gallery_fans_agrees_with_sampling():
  fans = gallery_fans()
  flags = [support_query(f).is_complete for f in fans]
  assert flags == [sampled_completeness(f) for f in fans]
  assert True in flags and False in flags


def test_completeness_of_seeded_fans_agrees_with_sampling():
  rng = random.Random(5)
  for n in (2, 3, 4):
    for moves in range(3):
      fan = random_stars(rng, n, moves)[-1]
      assert support_query(fan).is_complete
      assert sampled_completeness(fan)
      holed = _drop_one(rng, fan)
      assert not support_query(holed).is_complete
      assert not sampled_completeness(holed)
