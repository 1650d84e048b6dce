"""Cone.from_inequalities looks a system up in the conversion cache, keyed
by its sorted distinct primitive nonzero inequalities, its equations the
same way, and its rank (_system_key).

Each system is asked twice in one cache session: first as a miss, then,
with its rows permuted, duplicated, positively rescaled or padded with zero
rows, as a hit that must return the same object.  Both answers must equal,
field by field, the cone that the uncached conversion gives from an
emptied cache (reference_from_inequalities in cone_reference.py): rays,
lineality, facet normals in their order, the incidence facet_rays, span
normals and dimension.  The systems are seeded, in ranks 1-6, with and
without equations, with lineality, of lower dimension, the zero cone and
the whole space; and each session asks every system of a rank, so that a
key that forgot the equations or the rank would hand one system another's
cone.
"""

import random

import pytest

from logfan.cone import Cone, _cone_from_gens, intersect

from cone_reference import reference_from_inequalities


def _fields(c):
  return (c.ambient_rank, c.rays, c.lineality_basis, c.facet_normals,
          c.facet_rays, c.span_normals, c.dim)


def _variant(rows, d, rng):
  """Rows of rank d permuted, one duplicated, some multiplied by 2 or 3,
  and a zero row added, in an order drawn from rng."""
  rows = [list(r) for r in rows]
  if rows:
    rows.append(list(rng.choice(rows)))
    rows = [[k * x for x in r] for r, k in
            zip(rows, [rng.choice((1, 2, 3)) for _ in rows])]
  rows.append([0] * d)
  rng.shuffle(rows)
  return rows


def _systems(d, rng):
  """Seeded systems of rank d: (inequalities, equations)."""
  e = [[int(i == j) for j in range(d)] for i in range(d)]
  out = [
      ([], []),  # the whole space
      ([[0] * d], []),  # the whole space, from a zero row
      (e + [[-1] * d], []),  # the zero cone
      ([], e),  # the zero cone, by equations
      (e, []),  # the orthant
      (e[:1], []),  # a half-space: lineality of rank d - 1
  ]
  if d >= 2:
    out += [
        (e, [e[0]]),  # the orthant's facet x_0 = 0
        (e[1:], [e[0]]),  # the same cone, the equation taken for a row
        (e[:1] + [[-x for x in e[0]]], []),  # x_0 = 0, by two inequalities
        (e[:2], []),  # a wedge with lineality when d > 2
    ]
  for _ in range(4):
    rows = [[rng.randint(-3, 3) for _ in range(d)]
            for _ in range(rng.randint(1, d + 3))]
    out.append((rows, []))
    eqs = [[rng.randint(-2, 2) for _ in range(d)]
           for _ in range(rng.randint(1, max(1, d - 1)))]
    out.append((rows, eqs))
  return out


@pytest.mark.parametrize("d", range(1, 7))
def test_a_cached_system_equals_its_uncached_conversion(d):
  rng = random.Random(2800 + d)
  systems = [(s, (_variant(s[0], d, rng), _variant(s[1], d, rng)))
             for s in _systems(d, rng)]
  expected = [(_fields(reference_from_inequalities(*s, d)),
               _fields(reference_from_inequalities(*v, d)))
              for s, v in systems]
  _cone_from_gens.cache_clear()
  for (system, variant), (want, want_variant) in zip(systems, expected):
    first = Cone.from_inequalities(*system, d)
    again = Cone.from_inequalities(*variant, d)
    assert again is first, (system, variant)
    assert _fields(first) == want, system
    assert _fields(again) == want_variant == want, variant
  _cone_from_gens.cache_clear()


def test_the_whole_space_of_each_rank_is_its_own_entry():
  _cone_from_gens.cache_clear()
  for d in range(1, 7):
    for rows in ([], [[0] * d]):
      c = Cone.from_inequalities(rows, [], d)
      assert (c.ambient_rank, c.dim, len(c.lineality_basis)) == (d, d, d)
  _cone_from_gens.cache_clear()


def test_equations_are_part_of_the_key():
  _cone_from_gens.cache_clear()
  e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
  orthant = Cone.from_inequalities(e, [], 3)
  facet = Cone.from_inequalities(e, [e[2]], 3)
  assert (orthant.dim, facet.dim) == (3, 2)
  assert facet.rays == ((0, 1, 0), (1, 0, 0))
  _cone_from_gens.cache_clear()


@pytest.mark.parametrize("d", range(2, 6))
def test_intersection_is_one_object_either_way(d):
  rng = random.Random(2810 + d)
  _cone_from_gens.cache_clear()
  cones = [Cone.from_rays([[rng.randint(-2, 3) for _ in range(d)]
                           for _ in range(rng.randint(1, d + 2))], d)
           for _ in range(6)]
  for s in cones:
    for t in cones:
      meet = intersect(s, t)
      assert intersect(t, s) is meet
      ineqs = list(s.facet_normals) + list(t.facet_normals)
      eqs = list(s.span_normals) + list(t.span_normals)
      assert _fields(meet) == _fields(reference_from_inequalities(ineqs, eqs,
                                                                  d))
  _cone_from_gens.cache_clear()
