"""The membership search decides on facet values, and agrees with the
earlier search wherever that one answers.

monoid._member searches the multiplicity of each non-unit generator in
turn.  It carries the values of the remainder on the facets of the cone of
the non-unit generators modulo the units, takes each multiplicity from the
exact interval those values allow, and lets the facets on which every
later generator vanishes force it, cutting the branch when the forced
multiplicity is not an integer.  The earlier search, kept in
monoid_reference.py, stepped each multiplicity up by one with a cone test
per step.  The differential test runs both on 3 000 seeded monoids of
ranks 1 to 4, with mixed-sign generators and with units, and on witnessed
sums, shifted sums and random vectors in each: the answers must be equal
wherever the earlier search answers, and the search must answer every
vector that the earlier one answers.  A search that took the forced
multiplicity's floor would give the same answers, so one more test pins a
vector that such a search could not answer within the budget.  The work
guard counts calls: with the record of the monoid warm, a membership call
whose search visits 1 055 to 6 265 nodes tests the cone of the monoid
once, on entry, and takes one dot product per facet to start the search.
"""

import random

import pytest

from logfan import cone as cone_module
from logfan import monoid
from logfan.cone import Cone, _neg
from logfan.monoid import AffineMonoid, _unit_split, membership

from monoid_reference import reference_membership
from test_cone_core import _count_calls


def _monoid(rng):
  d = rng.randint(1, 4)
  gens = [tuple(rng.randint(-2, 2) for _ in range(d))
          for _ in range(rng.randint(1, 5))]
  if rng.random() < 0.3:
    u = tuple(rng.randint(-2, 2) for _ in range(d))
    gens += [u, _neg(u)]
  return AffineMonoid.make(gens, d)


def _vectors(rng, P):
  """A witnessed sum, the sum shifted by a small vector, and a random
  vector."""
  d = P.ambient_rank
  total = [0] * d
  for g in P.gens:
    c = rng.randint(0, 3)
    total = [a + c * b for a, b in zip(total, g)]
  shift = [a + rng.randint(-1, 1) for a in total]
  return [tuple(total), tuple(shift),
          tuple(rng.randint(-5, 5) for _ in range(d))]


def _answer(member, P, v):
  try:
    return member(P, v)
  except ValueError as e:
    assert "capped at" in str(e)
    return None


def test_the_search_agrees_with_the_earlier_search():
  rng = random.Random(2204)
  seen = set()
  for _ in range(3000):
    P = _monoid(rng)
    for v in _vectors(rng, P):
      want = _answer(reference_membership, P, v)
      got = _answer(membership, P, v)
      if want is not None:
        assert got == want, (P, v, want, got)
      seen.add((P.ambient_rank, bool(_unit_split(P).units), got))
  # every rank, with and without units, gave both answers
  assert seen >= {(d, u, a) for d in range(1, 5) for u in (False, True)
                  for a in (False, True)}


def test_a_forced_multiplicity_that_does_not_divide_cuts_the_branch():
  # (0, 1) and (1, 3) come first; (2, 0) and (3, 0) vanish on the facet
  # y >= 0, so there the multiplicity of (1, 3) is forced to y / 3.  With
  # none of (0, 1) that is 4 / 3: a search that went on with 1 would step
  # through the 500 000 multiplicities of (2, 0) before any leaf saw the
  # y-value left over, and pass the budget
  P = AffineMonoid.make([(0, 1), (1, 3), (2, 0), (3, 0)], 2)
  assert membership(P, (10 ** 6, 4))


WORK = [
    ([(1, 0), (1, 2), (2, 1), (3, 5)], (3200, 3201)),
    ([(5,), (6,), (9,)], (137 ** 2,)),
    ([(1, 0, 0), (-1, 0, 0), (1, 1, 2), (0, 2, 1), (0, 1, 1), (2, 3, 5)],
     (7, 100, 101)),
]


@pytest.mark.parametrize("gens, v", WORK, ids=["rank-2", "numerical", "units"])
def test_membership_runs_no_cone_test_and_no_dot_product_in_the_search(
    monkeypatch, gens, v):
  P = AffineMonoid.make(gens, len(v))
  s = _unit_split(P)
  membership(P, tuple(0 for _ in v))  # C's span normals, filled on first read
  monoid._member.cache_clear()
  contains = _count_calls(monkeypatch, Cone, "contains")
  in_cone = _count_calls(monkeypatch, cone_module, "_dot")
  in_monoid = _count_calls(monkeypatch, monoid, "_dot")
  assert membership(P, v)
  # the entry test of v, then one dot product per facet of the quotient cone
  assert len(contains) == 1
  assert len(in_cone) == len(s.C.span_normals) + len(s.C.facet_normals)
  assert len(in_monoid) == len(s.pc.facet_normals)
