"""Smoothness and rank-2 resolution against the code they replaced.

is_smooth (one Hermite pass over the transposed ray matrix) is compared
with the rank check plus Smith normal form and with the gcd of maximal
minors kept in resolution_reference, on seeded ray sets of ranks 1 to 6
with as many rays as the rank or more, among them dependent and
non-primitive rows, and of ranks 7 and 8 with fewer rays than the rank.
A call count guards against a second Hermite pass coming back.
is_unimodular is compared with the determinant.
resolve_2d (one Hilbert basis per singular cone, the fan built once) is
compared with the loop that inserted one ray at a time and re-tested the
whole fan after every ray, on the fans of acceptance criterion 11, and
call counts guard against the re-tests, the per-step Hilbert bases and
the per-step Fan.make coming back.
"""

import random

import pytest

import logfan.fan
import logfan.lattice
from logfan.cone import Cone, hilbert_basis, is_smooth
from logfan.fan import Fan, resolve_2d, support_query
from logfan.lattice import IntMatrix, det, is_unimodular
from resolution_reference import (
    criterion_11_fans,
    reference_is_smooth,
    reference_is_smooth_by_minors,
    reference_resolve_2d,
)


def _outcome(predicate, sigma):
  try:
    return predicate(sigma)
  except ValueError:
    return "lineality"


def _unimodular(rng, d):
  rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
  for _ in range(2 * d):
    i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
    c = rng.choice((-2, -1, 1, 2))
    if i != j:
      rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    else:
      rows[i] = [-a for a in rows[i]]
  rng.shuffle(rows)
  return rows


def _ray_sets(rng):
  """(rank, rows, kind) triples; the rows are not made primitive."""
  for d in range(1, 7):
    for _ in range(12):
      k = rng.randint(0, d)
      basis = _unimodular(rng, d)[:k]
      yield d, basis, "basis part"
      if k:
        scaled = [list(r) for r in basis]
        i = rng.randrange(k)
        scaled[i] = [rng.choice((2, 3, -2)) * x for x in scaled[i]]
        yield d, scaled, "non-primitive"
      if k >= 2:
        dep = [list(r) for r in basis]
        dep[-1] = [sum(rng.randint(-2, 2) * r[c] for r in dep[:-1])
                   for c in range(d)]
        yield d, dep, "dependent"
      k = rng.randint(1, d + 2)
      yield d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)], \
          "random"
  # fewer rays than the rank, where the minors are many
  for d in (7, 8):
    for _ in range(12):
      k = rng.randint(1, d - 1)
      basis = _unimodular(rng, d)[:k]
      yield d, basis, "basis part"
      scaled = [list(r) for r in basis]
      i = rng.randrange(k)
      scaled[i] = [2 * x for x in scaled[i]]
      yield d, scaled, "non-primitive"
      yield d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)], \
          "random"


def _raw_cone(d, rows):
  """A Cone built directly, so the rows reach is_smooth as drawn:
  repeated, zero, non-primitive or dependent, and more rows than the rank."""
  return Cone(ambient_rank=d, rays=tuple(tuple(r) for r in rows),
              lineality_basis=(), facet_normals=(), facet_rays=(),
              span_normals=(), _dim=0)


def test_is_smooth_agrees_with_smith_form_on_ray_matrices():
  seen = set()
  for d, rows, kind in _ray_sets(random.Random(6)):
    sigma = _raw_cone(d, rows)
    got = is_smooth(sigma)
    assert got == reference_is_smooth(sigma), (d, rows)
    assert got == reference_is_smooth_by_minors(sigma), (d, rows)
    seen.add((kind, got, len(rows) > d, d > 6))
  assert {("basis part", True, False, False),
          ("non-primitive", False, False, False),
          ("dependent", False, False, False), ("random", False, True, False),
          ("basis part", True, False, True),
          ("non-primitive", False, False, True)} <= seen


def test_is_smooth_takes_one_hermite_pass(monkeypatch):
  calls = []
  hermite = logfan.lattice._hermite

  def counted(rows, cols, top=0):
    calls.append(len(rows))
    return hermite(rows, cols, top)

  monkeypatch.setattr(logfan.lattice, "_hermite", counted)
  n = 0
  for d, rows, _ in _ray_sets(random.Random(9)):
    is_smooth(_raw_cone(d, rows))
    n += 1
    assert len(calls) == n, (d, rows)


def _square_matrices(rng):
  yield []
  for n in range(1, 6):
    for _ in range(20):
      yield _unimodular(rng, n)
      yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
      if n > 1:
        rows = _unimodular(rng, n)
        rows[0] = list(rows[-1])  # a repeated row: singular
        yield rows


def test_is_unimodular_agrees_with_the_determinant():
  seen = set()
  for rows in _square_matrices(random.Random(10)):
    n = len(rows)
    A = IntMatrix(n, n, tuple(x for r in rows for x in r))
    got = is_unimodular(A)
    assert got == (det(A) in (1, -1)), rows
    seen.add((got, det(A) == 0))
  assert seen == {(True, False), (False, False), (False, True)}
  assert is_unimodular(IntMatrix(0, 0, ()))


def test_is_unimodular_is_false_off_square():
  assert not is_unimodular(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
  assert not is_unimodular(IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]]))
  assert not is_unimodular(IntMatrix(0, 2, ()))
  assert not is_unimodular(IntMatrix(2, 0, ()))


def test_is_smooth_agrees_with_smith_form_on_canonical_cones():
  seen = set()
  for d, rows, _ in _ray_sets(random.Random(7)):
    if d > 4 or len(rows) > d + 1:
      continue
    sigma = Cone.from_rays(rows, d)
    got = _outcome(is_smooth, sigma)
    assert got == _outcome(reference_is_smooth, sigma), (d, rows)
    assert got == _outcome(reference_is_smooth_by_minors, sigma), (d, rows)
    seen.add(got)
  assert seen == {True, False, "lineality"}


def test_resolve_2d_agrees_with_the_full_retest_loop():
  fans = criterion_11_fans(random.Random(11), 200)
  completed = [support_query(f).is_complete for f in fans]
  assert True in completed and False in completed
  for fan in fans:
    got, steps = resolve_2d(fan)
    want, want_steps = reference_resolve_2d(fan)
    assert steps == want_steps
    assert got == want


def test_resolve_2d_tests_each_cone_once(monkeypatch):
  calls = []

  def counted(sigma):
    calls.append(sigma)
    return is_smooth(sigma)

  monkeypatch.setattr(logfan.fan, "is_smooth", counted)
  longest = 0
  for fan in criterion_11_fans(random.Random(12), 10):
    calls.clear()
    _, steps = resolve_2d(fan)
    twos = sum(1 for c in fan.max_cones if c.dim == 2)
    assert len(calls) <= twos + 2 * len(steps)
    longest = max(longest, len(steps))
  # re-testing every cone after each ray would exceed the bound here
  assert longest >= 3


def test_resolve_2d_takes_one_hilbert_basis_per_singular_cone(monkeypatch):
  fans = criterion_11_fans(random.Random(13), 40)
  calls = []

  def counted(sigma):
    calls.append(sigma)
    return hilbert_basis(sigma)

  def no_make(cones, ambient_rank):
    raise AssertionError("resolve_2d called Fan.make")

  monkeypatch.setattr(logfan.fan, "hilbert_basis", counted)
  monkeypatch.setattr(Fan, "make", staticmethod(no_make))
  resolved = []
  longest = 0
  for fan in fans:
    calls.clear()
    got, steps = resolve_2d(fan)
    assert calls == [c for c in fan.max_cones
                     if c.dim == 2 and not is_smooth(c)]
    resolved.append(got)
    longest = max(longest, len(steps))
  assert longest >= 3
  monkeypatch.undo()
  # the fan is built without Fan.make's filter, so check that every cone
  # is maximal
  for got in resolved:
    assert Fan.make(got.max_cones, 2).max_cones == got.max_cones


def test_resolve_2d_reports_lineality():
  halfplane = logfan.fan.Fan.make([Cone.from_rays([(1, 0), (0, 1), (0, -1)],
                                                  2)], 2)
  with pytest.raises(ValueError):
    resolve_2d(halfplane)
