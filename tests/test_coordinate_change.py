"""One coordinate change per monoid, against the old path.

The Smith form runs on row lists (_snf_rows) and the quotient by the units
is built once per monoid (_unit_split).  These tests compare both with the
IntMatrix-based Smith form and the per-element solve kept in
lattice_reference.py: the normal forms and projections on seeded matrices,
and the generator tuples of saturation, structure_queries and
_preimage_generators on seeded monoids and homomorphisms, with and without
units.  The last tests count the Smith forms and projections a query takes.
"""

import random

import pytest

from logfan import lattice, monoid
from logfan.lattice import IntMatrix, _snf_rows, complement_projection, snf
from logfan.monoid import (
    AffineMonoid,
    MonoidHom,
    _member,
    _preimage_generators,
    _gp_map,
    _unit_split,
    is_kummer,
    membership,
    saturation,
    structure_queries,
)

from lattice_reference import (
    reference_complement_projection,
    reference_is_kummer,
    reference_preimage_generators,
    reference_saturation_gens,
    reference_snf,
    reference_structure,
)


def _matrix(rng, m, n, lo=-6, hi=6):
  """A seeded m x n matrix; every third one has a repeated row, so that
  rank-deficient shapes come up as well."""
  rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
  if m > 1 and rng.random() < 1 / 3:
    rows[-1] = [2 * x for x in rows[0]]
  return IntMatrix(m, n, tuple(x for r in rows for x in r))


def _monoid(rng, with_units):
  """A seeded monoid of rank 2-4 with small generators; with_units adds a
  generator together with its negative."""
  d = rng.randint(2, 4)
  gens = [tuple(rng.randint(-1, 3) for _ in range(d))
          for _ in range(rng.randint(2, 4))]
  if with_units:
    g = tuple(rng.randint(-2, 2) for _ in range(d))
    gens += [g, tuple(-x for x in g)]
  return AffineMonoid.make(gens, d)


def _outcome(f, *args):
  """f(*args), or the type and message of the ValueError it raises."""
  try:
    return f(*args)
  except ValueError as err:
    return ("ValueError", str(err))


@pytest.mark.parametrize("seed", range(40))
def test_snf_rows_matches_the_reference_snf(seed):
  rng = random.Random(seed)
  for _ in range(5):
    A = _matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
    D, U, V = reference_snf(A)
    assert _snf_rows(A.row_list(), A.rows, A.cols) == (
        D.row_list(), U.row_list(), V.row_list())
    assert snf(A) == (D, U, V)


@pytest.mark.parametrize("seed", range(40))
def test_complement_projection_matches_the_reference(seed):
  rng = random.Random(seed)
  dim = rng.randint(1, 5)
  sub = _matrix(rng, rng.randint(0, dim), dim, -4, 4).row_list()
  assert (complement_projection(sub, dim)
          == reference_complement_projection(sub, dim))


@pytest.mark.parametrize("with_units", [False, True])
@pytest.mark.parametrize("seed", range(60))
def test_saturation_and_structure_match_the_old_path(seed, with_units):
  P = _monoid(random.Random(seed), with_units)
  assert (_outcome(lambda: saturation(P).gens)
          == _outcome(reference_saturation_gens, P))
  q = _outcome(structure_queries, P)
  got = q if isinstance(q, tuple) else (
      q.is_saturated, q.is_sharp, q.units, q.sharpening.gens,
      q.sharpening.ambient_rank)
  assert got == _outcome(reference_structure, P)


def _hom(rng, with_units):
  """A seeded homomorphism from a monoid of rank 2-4 to rank 1-3, onto a
  target holding the image generators plus up to two more, and with
  with_units a unit line."""
  P = _monoid(rng, with_units=False)
  dq = rng.randint(1, 3)
  M = _matrix(rng, dq, P.ambient_rank, -2, 2)
  extra = [tuple(rng.randint(-1, 2) for _ in range(dq))
           for _ in range(rng.randint(0, 2))]
  if with_units:
    extra += [(1,) + (0,) * (dq - 1), (-1,) + (0,) * (dq - 1)]
  Q = AffineMonoid.make([M.apply(g) for g in P.gens] + extra, dq)
  return MonoidHom(P, Q, M)


@pytest.mark.parametrize("with_units", [False, True])
@pytest.mark.parametrize("seed", range(60))
def test_preimage_generators_match_the_old_path(seed, with_units):
  theta = _hom(random.Random(1000 + seed), with_units)
  assert (_outcome(_preimage_generators, theta)
          == _outcome(reference_preimage_generators, theta))


def test_is_kummer_matches_the_stacked_rank_test():
  """The rank of the group map decides injectivity on P^gp as the kernel
  basis and the two stacked ranks did, on seeded maps that are injective
  and not, Kummer and not."""
  rng = random.Random(2000)
  seen = set()
  for _ in range(400):
    theta = _hom(rng, rng.random() < 0.5)
    n = _gp_map(theta)
    got = is_kummer(theta)
    assert got == reference_is_kummer(theta)
    seen.add((lattice.rank(n) == n.cols, got))
  assert seen == {(False, False), (True, False), (True, True)}


def test_the_seeded_cases_reach_both_branches():
  """The seeded monoids above come with and without units, saturated and
  not, so both the lifted and the unlifted saturation are compared."""
  kinds = set()
  for seed in range(60):
    for with_units in (False, True):
      P = _monoid(random.Random(seed), with_units)
      kinds.add(("units", bool(_unit_split(P)[0])))
      q = _outcome(structure_queries, P)
      if not isinstance(q, tuple):
        kinds.add(("saturated", q.is_saturated))
  assert kinds == {("units", False), ("units", True),
                   ("saturated", False), ("saturated", True)}


def _count(monkeypatch, module, name):
  """Count the calls of module.name; returns the one-element counter."""
  calls = [0]
  real = getattr(module, name)

  def counted(*args):
    calls[0] += 1
    return real(*args)

  monkeypatch.setattr(module, name, counted)
  return calls


def test_saturation_of_a_pointed_monoid_takes_no_smith_form(monkeypatch):
  calls = _count(monkeypatch, lattice, "_snf_rows")
  monkeypatch.setattr(monoid, "_snf_rows", lattice._snf_rows)
  for gens, d in [([(1, 0), (1, 2)], 2), ([(2, 0, 1), (0, 3, 1), (1, 1, 1)], 3),
                  ([(1, 0, 0), (0, 1, 0)], 3)]:
    P = AffineMonoid.make(gens, d)
    assert not structure_queries(P).units
    calls[0] = 0
    saturation(P)
    assert calls[0] == 0
  # the counter sees the Smith forms of a monoid with units
  saturation(AffineMonoid.make([(1, 0), (-1, 0), (1, 2)], 2))
  assert calls[0] > 0


def test_membership_builds_the_unit_quotient_once(monkeypatch):
  calls = _count(monkeypatch, monoid, "complement_projection")
  _unit_split.cache_clear()
  _member.cache_clear()
  P = AffineMonoid.make([(1, 0, 0), (-1, 0, 0), (0, 1, 2), (0, 2, 1)], 3)
  answers = [membership(P, (a, b, c)) for a in range(-2, 3)
             for b in range(4) for c in range(4)]
  assert any(answers) and not all(answers)
  assert calls[0] <= 1
