"""The determinant pass and the enumeration it leads.

_det_rows is the forward-only fraction-free elimination, with no identity
block, beside the Gauss-Jordan one of _bareiss that _adjugate wraps; det
and is_unimodular read it, and _enumerated_basis takes each simplicial
piece's index from it, taking an adjugate only for a piece of index
above 1.  It is compared with the
cofactor expansion of cone_reference on seeded square matrices of sizes 0
to 6, singular ones, ones whose leading pivot is 0, negative determinants
and entries up to 10^30 among them.  A cone whose pieces are all
unimodular gets its rays as its basis with no adjugate, and the
enumeration equals the box walk of cone_reference on seeded cones of
ranks 3 to 5 with piece indices 1 to 4.
"""

import random

import pytest

from logfan import cone as cone_module
from logfan.cone import (
    Cone,
    _cone_from_gens,
    _enumerated_basis,
    _simplicial_pieces,
    hilbert_basis,
)
from logfan.lattice import IntMatrix, _adjugate, _det_rows, det, is_unimodular
from cone_reference import reference_det, reference_hilbert_basis


def _square_matrices(rng):
  """(kind, rows) for seeded square matrices of sizes 0 to 6."""
  yield "empty", []
  for k in range(1, 7):
    for _ in range(12):
      yield "small", [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
      yield "huge", [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(k)]
                     for _ in range(k)]
      rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
      rows[0][0] = 0
      if k > 1:
        rows[1][0] = rng.choice((-2, -1, 1, 2))
      yield "zero pivot", rows
      if k > 1:
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        yield "singular", rows
        yield "swapped", rows[1:] + rows[:1]


@pytest.mark.parametrize("seed", [41, 42])
def test_det_rows_matches_the_cofactor_expansion(seed):
  signs = set()
  kinds = set()
  for kind, rows in _square_matrices(random.Random(seed)):
    copy = [list(r) for r in rows]
    want = reference_det(rows)
    got = _det_rows(rows)
    assert got == want, rows
    assert rows == copy
    k = len(rows)
    A = IntMatrix(k, k, tuple(x for r in rows for x in r))
    assert det(A) == want
    assert is_unimodular(A) == (abs(want) == 1)
    assert _adjugate(rows)[1] == want
    signs.add((want > 0) - (want < 0))
    kinds.add((kind, want == 0))
  assert signs == {-1, 0, 1}
  assert {("singular", True), ("zero pivot", False), ("huge", False)} <= kinds


UNIMODULAR_PIECES = [
    # the cone over the unit square, the unit cube, and the square again in
    # a 3-dimensional span inside rank 4
    ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3),
    ([(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 4),
    ([(1, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2), (0, 1, 1, 2)], 4),
]


def test_unimodular_pieces_give_the_rays_and_take_no_adjugate(monkeypatch):
  def refuse(*args):
    raise AssertionError("enumeration step taken")

  _cone_from_gens.cache_clear()
  cones = [Cone.from_rays(gens, d) for gens, d in UNIMODULAR_PIECES]
  solid = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
  monkeypatch.setattr(cone_module, "_adjugate", refuse)
  monkeypatch.setattr(cone_module, "_parallelepiped_points", refuse)
  for sigma in cones:
    assert len(sigma.rays) > sigma.dim >= 3
    assert hilbert_basis(sigma) == sorted(sigma.rays)
  # the guard is live: a piece of index 2 still takes one
  with pytest.raises(AssertionError, match="enumeration step taken"):
    hilbert_basis(solid)
  monkeypatch.undo()
  for sigma in cones:
    assert hilbert_basis(sigma) == reference_hilbert_basis(sigma)


def _indexed_cones(rng, count):
  """count strictly convex full-dimensional cones of ranks 3 to 5, on some
  unit vectors and one to three vectors with entries in [-1, 2], whose
  simplicial pieces have indices 1 to 4; and the indices seen."""
  out, seen = [], set()
  while len(out) < count:
    d = rng.randint(3, 5)
    gens = [tuple(int(i == j) for j in range(d))
            for i in rng.sample(range(d), rng.randint(d - 2, d))]
    gens += [tuple(rng.randint(-1, 2) for _ in range(d))
             for _ in range(rng.randint(1, 3))]
    sigma = Cone.from_rays(gens, d)
    if not sigma.is_strictly_convex or sigma.dim != d:
      continue
    index = [abs(reference_det([list(r) for r in piece]))
             for piece in _simplicial_pieces(sigma)]
    if max(index) <= 4:
      seen.update(index)
      out.append(sigma)
  return out, seen


def test_enumerated_basis_matches_the_box_walk():
  cones, seen = _indexed_cones(random.Random(31), 300)
  assert seen == {1, 2, 3, 4}
  assert {c.ambient_rank for c in cones} == {3, 4, 5}
  assert any(len(c.rays) > c.dim for c in cones)
  for sigma in cones:
    assert _enumerated_basis(sigma) == reference_hilbert_basis(sigma), sigma
