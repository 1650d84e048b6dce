"""_support_equal, run by search_refinement, intersects each pair of
maximal cones once and reads the meeting from both sides.

The work guard counts intersect calls: |f1| * |f2| for a pair of fans of
equal support, where intersecting per direction would take twice that.
The answers, and the pieces handed to the wall test with their order, are
compared with the two-pass form on seeded pairs of equal and of different
supports.
"""

import random

from covering_reference import projective_fan, random_stars
from logfan import fan as fan_module
from logfan.cone import Cone
from logfan.fan import Fan, _support_equal, search_refinement


def _two_passes(f1, f2):
  """The pieces of each maximal cone of either fan, one intersection per
  ordered pair, cones of f2 first."""
  for a, b in ((f1, f2), (f2, f1)):
    for t in b.max_cones:
      pieces = [p for p in (fan_module.intersect(s, t) for s in a.max_cones)
                if p.dim == t.dim]
      if not fan_module._tiles(pieces, t):
        return False
  return True


def _pairs():
  rng = random.Random(17)
  out = []
  for n in (2, 3):
    for _ in range(6):
      chain = random_stars(rng, n, rng.randint(1, 3))
      out.append((chain[0], chain[-1]))
      out.append((chain[-1], chain[rng.randrange(len(chain))]))
      # a fan missing one maximal cone has a smaller support
      cones = list(chain[-1].max_cones)
      del cones[rng.randrange(len(cones))]
      out.append((Fan(n, tuple(cones)), chain[0]))
  return out


def _counting(monkeypatch):
  calls = []
  real = fan_module.intersect
  monkeypatch.setattr(fan_module, "intersect",
                      lambda s, t: calls.append((s, t)) or real(s, t))
  return calls


def test_each_pair_of_maximal_cones_is_intersected_once(monkeypatch):
  calls = _counting(monkeypatch)
  equal = 0
  for f1, f2 in _pairs():
    del calls[:]
    if _support_equal(f1, f2):
      equal += 1
      assert len(calls) == len(f1.max_cones) * len(f2.max_cones)
      del calls[:]
      assert _two_passes(f1, f2)
      assert len(calls) == 2 * len(f1.max_cones) * len(f2.max_cones)
  assert equal >= 12


def test_the_answers_and_the_pieces_are_those_of_two_passes(monkeypatch):
  seen = []
  real = fan_module._tiles
  monkeypatch.setattr(fan_module, "_tiles",
                      lambda pieces, t=None: seen.append((list(pieces), t))
                      or real(pieces, t))
  answers = set()
  for f1, f2 in _pairs():
    del seen[:]
    got = _support_equal(f1, f2)
    mine = list(seen)
    del seen[:]
    assert _two_passes(f1, f2) == got
    assert mine == seen
    answers.add(got)
  assert answers == {True, False}


def test_search_refinement_intersects_each_pair_once(monkeypatch):
  p2 = projective_fan(2)
  tau = Cone.from_rays([(1, 0), (0, 1)], 2)
  finer = fan_module.star_subdivision(p2, tau)
  calls = _counting(monkeypatch)
  assert search_refinement(p2, finer) == [tau]
  assert len(calls) == len(p2.max_cones) * len(finer.max_cones)
