"""The one fraction-free elimination that picks a conversion's start rows.

_bareiss keeps a row when it is independent of the rows kept before it, and
holds every kept row as the latest pivot D times its reduced echelon row,
beside the same multiple of the identity.  It is compared with the echelon
that never divides, kept in cone_reference as reference_independent, on
seeded row sequences of ranks 1 to 8 with dependent rows, zero rows, zero
leading pivots and entries up to 10^30 among them: both must keep the same
rows, every kept row must be D at its own pivot column, 0 at the others,
and its identity block times the kept rows; a square kept set M must give
M X = D I for the identity blocks X sorted by pivot column, with |D| the
cofactor determinant of M; and no entry may pass the Hadamard bound of the
kept rows.  Dense cones of ranks 24 and 64 (the CLI's rank limit), on which
the echelon that never divides took seconds, convert in under 2 s and keep
|det| of their rays as their index.
"""

import itertools
import math
import random
import time

import pytest

from logfan.cone import Cone, _cone_from_gens
from logfan.lattice import _bareiss, _det_rows
from cone_reference import reference_det, reference_independent


def _sequences(rng, n):
  """(kind, rows) for seeded sequences of rows of length n, of ranks 1 to
  n."""
  for r, big in itertools.product(range(1, n + 1), (3, 10 ** 30) * 4):
    base = [[rng.randint(-big, big) for _ in range(n)] for _ in range(r)]
    if n > 1 and rng.random() < 0.5:
      for row in base:
        row[0] = 0
    rows = []
    for i, row in enumerate(base):
      if rng.random() < 0.2:
        rows.append([0] * n)
      rows.append(row)
      if rng.random() < 0.5:
        # a multiple of the row, or a combination with the one before
        a, b = rng.randint(-2, 2), rng.randint(-2, 2) if i else 0
        rows.append([a * x + b * y for x, y in zip(row, base[i - 1])])
    kind = "huge" if big > 3 else "small"
    yield kind, rows
    yield kind, [[0] * n] + rows[1:] + rows[:1]


def _check_kept(echelon, kept, n):
  """The invariants of the kept rows of _bareiss, and D."""
  dd = echelon[-1][1][echelon[-1][0]] if echelon else 1
  assert dd
  pivots = [c for c, _ in echelon]
  bound = math.prod(sum(x * x for x in row) for row in kept)
  for c, p in echelon:
    assert [p[j] for j in pivots] == [dd if j == c else 0 for j in pivots]
    ident = p[n:]
    assert all(x == 0 for x in ident[len(kept):])
    assert p[:n] == [sum(t * row[j] for t, row in zip(ident, kept))
                     for j in range(n)]
    assert all(x * x <= bound for x in p)
  return dd


@pytest.mark.parametrize("n", range(1, 9))
def test_bareiss_keeps_the_rows_of_the_echelon_that_never_divides(n):
  rng = random.Random(700 + n)
  seen = set()
  for kind, rows in _sequences(rng, n):
    echelon, reference, kept = [], [], []
    refused = False
    for row in rows:
      if len(echelon) == n:
        break
      want = reference_independent(reference, row)
      assert _bareiss(echelon, row, n) == want, (rows, row)
      if want:
        kept.append(row)
      refused |= not want
      _check_kept(echelon, kept, n)
    seen.add((kind, len(kept) == n, refused))
    if len(kept) < n:
      continue
    dd = _check_kept(echelon, kept, n)
    assert abs(dd) == abs(reference_det(kept))
    x = [p[n:] for _, p in sorted(echelon)]
    assert [[sum(a * x[k][j] for k, a in enumerate(row)) for j in range(n)]
            for row in kept] == [[dd * (i == j) for j in range(n)]
                                 for i in range(n)]
  assert {(kind, True, True) for kind in ("small", "huge")} <= seen
  if n > 1:
    assert {(kind, False, True) for kind in ("small", "huge")} <= seen


def _dense(d):
  r = random.Random(5)
  return [[r.randint(-3, 3) for _ in range(d)] for _ in range(d)]


@pytest.mark.parametrize("d", [24, 64])
def test_dense_cones_convert_at_once(d):
  rows = _dense(d)
  _cone_from_gens.cache_clear()
  t0 = time.perf_counter()
  sigma = Cone.from_rays(rows, d)
  assert time.perf_counter() - t0 < 2.0
  assert len(sigma.rays) == len(sigma.facet_normals) == d
  assert sigma._index == abs(_det_rows(rows))
