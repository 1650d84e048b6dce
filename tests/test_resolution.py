"""Smoothness and rank-2 resolution against the code they replaced.

is_smooth (a simplicial cone's index, kept on it) is compared with the
rank check plus Smith normal form and with the gcd of maximal minors kept
in resolution_reference, and with the Hermite pass over the transposed ray
matrix kept in lattice_reference, on the cones of seeded ray sets of ranks
1 to 6 with as many rays as the rank or more, among them dependent and
non-primitive rows, and of ranks 7 and 8 with fewer rays than the rank;
the Hermite pass is compared with the other two on the raw rows, and the
kept index with the gcd of the maximal minors.  Call counts guard the
index: a converted full-dimensional simplicial cone computes nothing for
it, any other simplicial cone two determinants once, and a cone with more
rays than its dimension none.
is_unimodular is compared with the cofactor determinant of cone_reference.
resolve_2d (one Hirzebruch-Jung chain per singular cone, the fan built
once) is compared with the loop that inserted one ray at a time and
re-tested the whole fan after every ray, on the fans of acceptance
criterion 11, and call counts guard against the re-tests, the per-step
chains and the per-step Fan.make coming back.
"""

import itertools
import math
import random

import pytest

import logfan.cone
import logfan.fan
import logfan.lattice
from logfan.cone import Cone, _chain, _cone_from_gens, faces, is_smooth
from logfan.fan import Fan, resolve_2d, support_query
from logfan.lattice import IntMatrix, is_unimodular, primitive
from cone_reference import reference_det
from lattice_reference import _extends_to_basis
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
  """A Cone built directly, so the rows reach the references as drawn:
  repeated, zero, non-primitive or dependent, and more rows than the rank."""
  return Cone(ambient_rank=d, rays=tuple(tuple(r) for r in rows),
              lineality_basis=(), facet_normals=(), facet_rays=(),
              span_normals=(), _dim=0)


def test_is_smooth_agrees_with_smith_form_on_ray_matrices():
  seen = set()
  for d, rows, kind in _ray_sets(random.Random(6)):
    sigma = _raw_cone(d, rows)
    got = _extends_to_basis(rows, d)
    assert got == reference_is_smooth(sigma), (d, rows)
    assert got == reference_is_smooth_by_minors(sigma), (d, rows)
    seen.add((kind, got, len(rows) > d, d > 6))
  assert {("basis part", True, False, False),
          ("non-primitive", False, False, False),
          ("dependent", False, False, False), ("random", False, True, False),
          ("basis part", True, False, True),
          ("non-primitive", False, False, True)} <= seen


def test_is_smooth_reads_the_kept_index(monkeypatch):
  calls = {"_hermite": 0, "_det_rows": 0}

  def counted(module, name):
    run = getattr(module, name)

    def wrapper(*args):
      calls[name] += 1
      return run(*args)

    monkeypatch.setattr(module, name, wrapper)

  def work(sigma):
    for name in calls:
      calls[name] = 0
    is_smooth(sigma)
    return calls["_hermite"], calls["_det_rows"]

  counted(logfan.lattice, "_hermite")
  counted(logfan.cone, "_det_rows")
  kinds = set()
  for d, rows, _ in _ray_sets(random.Random(9)):
    _cone_from_gens.cache_clear()
    sigma = Cone.from_rays(rows, d)
    if not sigma.is_strictly_convex:
      continue
    if len(sigma.rays) > sigma.dim:
      assert work(sigma) == (0, 0), (d, rows)
      kinds.add("more rays")
      continue
    gens = {primitive(r) for r in rows if any(r)}
    if sigma.dim == d and len(gens) == d:
      assert work(sigma) == (0, 0), (d, rows)
      kinds.add("converted")
      continue
    hermite, dets = work(sigma)
    assert hermite == 0 and dets <= 2, (d, rows)
    assert work(sigma) == (0, 0), (d, rows)
    kinds.add("lower" if sigma.dim < d else "redundant")
    # the proper faces that the face walk builds have no span normals
    # until their first read fills them
    for face in faces(sigma)[:-1]:
      if face._span_normals is None:
        kinds.add("walked")
        assert work(face)[1] <= 2, (d, rows, face)
        assert work(face) == (0, 0), (d, rows, face)
  assert kinds == {"more rays", "converted", "lower", "redundant", "walked"}


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
    want = reference_det(rows)
    assert got == (want in (1, -1)), rows
    seen.add((got, want == 0))
  assert seen == {(True, False), (False, False), (False, True)}
  assert is_unimodular(IntMatrix(0, 0, ()))


def test_is_unimodular_is_false_off_square():
  assert not is_unimodular(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
  assert not is_unimodular(IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]]))
  assert not is_unimodular(IntMatrix(0, 2, ()))
  assert not is_unimodular(IntMatrix(2, 0, ()))


def _minors_gcd(rays, d):
  """The gcd of the maximal minors of the ray matrix: the index of the
  rays in their span lattice when they are independent."""
  g = 0
  for cols in itertools.combinations(range(d), len(rays)):
    g = math.gcd(g, reference_det([[r[c] for c in cols] for r in rays]))
  return g


def test_is_smooth_agrees_with_smith_form_on_canonical_cones():
  seen = set()
  for d, rows, _ in _ray_sets(random.Random(7)):
    sigma = Cone.from_rays(rows, d)
    got = _outcome(is_smooth, sigma)
    assert got == _outcome(reference_is_smooth, sigma), (d, rows)
    assert got == _outcome(reference_is_smooth_by_minors, sigma), (d, rows)
    if got == "lineality":
      seen.add(got)
      continue
    assert got == _extends_to_basis(sigma.rays, d), (d, rows)
    if len(sigma.rays) == sigma.dim:
      assert sigma._index == _minors_gcd(sigma.rays, d), (d, rows)
    seen.add(("full" if sigma.dim == d else "lower", got))
    if len({primitive(r) for r in rows if any(r)}) > len(sigma.rays):
      seen.add(("redundant", got))
  assert seen == {"lineality"} | {(kind, got)
                                  for kind in ("full", "lower", "redundant")
                                  for got in (True, False)}


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
    return _chain(sigma)

  def no_make(cones, ambient_rank):
    raise AssertionError("resolve_2d called Fan.make")

  monkeypatch.setattr(logfan.fan, "_chain", counted)
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
