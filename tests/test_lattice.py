"""Tests for the exact integer linear algebra layer.

sympy provides independent oracles for the normal forms; the minor-gcd
characterization of invariant factors gives a second, algorithm-free oracle
for the Smith form.
"""

import itertools
import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from logfan.lattice import (
    AbelianQuotient,
    IntMatrix,
    cokernel,
    complement_projection,
    det,
    hnf,
    is_unimodular,
    kernel_basis,
    primitive,
    rank,
    row_lattice_basis,
    saturate_row_lattice,
    snf,
)

from lattice_reference import express_in_rows


def sy(A):
  return sympy.Matrix(A.row_list())


small_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, max_dim=4):
  m = draw(st.integers(1, max_dim))
  n = draw(st.integers(1, max_dim))
  ents = draw(st.lists(small_entries, min_size=m * n, max_size=m * n))
  return IntMatrix(m, n, tuple(ents))


def test_hnf_worked_example():
  H, U = hnf(IntMatrix.from_rows([[2, 4], [0, 3]]))
  assert H.row_list() == [[2, 1], [0, 3]]
  assert is_unimodular(U)
  assert U @ IntMatrix.from_rows([[2, 4], [0, 3]]) == H


def test_hnf_row_lattice_membership_exhaustive():
  # brute-force the lattice spanned by (2,4) and (0,3) on a box and compare
  # with solvability against the Hermite basis
  A = IntMatrix.from_rows([[2, 4], [0, 3]])
  H, _ = hnf(A)
  basis = [list(H.row(i)) for i in range(2)]
  # coefficient ranges chosen wide enough to cover every lattice point of the
  # scan box below
  lattice = set()
  for a in range(-7, 8):
    for b in range(-13, 14):
      lattice.add((2 * a, 4 * a + 3 * b))
  for x in range(-12, 13):
    for y in range(-12, 13):
      expect = (x, y) in lattice
      got = express_in_rows(basis, (x, y)) is not None
      assert got == expect, (x, y)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_hnf_properties(A):
  H, U = hnf(A)
  assert is_unimodular(U)
  assert U @ A == H
  # echelon: pivot columns strictly increase, pivots positive, above reduced
  last = -1
  for i in range(H.rows):
    row = H.row(i)
    piv = next((j for j in range(H.cols) if row[j] != 0), None)
    if piv is None:
      assert all(not any(H.row(k)) for k in range(i, H.rows))
      break
    assert piv > last
    last = piv
    assert row[piv] > 0
    for k in range(i):
      assert 0 <= H.entry(k, piv) < row[piv]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_hnf_agrees_with_sympy_on_row_lattice(A):
  H, _ = hnf(A)
  mine = [list(H.row(i)) for i in range(H.rows) if any(H.row(i))]
  theirs_mat = hermite_normal_form(sy(A).T).T  # sympy works column-style
  theirs = [[int(x) for x in theirs_mat.row(i)]
            for i in range(theirs_mat.rows) if any(theirs_mat.row(i))]
  # same lattice: mutual membership
  for v in theirs:
    assert express_in_rows(mine, v) is not None
  for v in mine:
    assert express_in_rows(theirs, v) is not None if theirs else not any(v)


def test_snf_worked_example():
  A = IntMatrix.from_rows([[1, 2], [3, 4]])
  D, U, V = snf(A)
  assert D.row_list() == [[1, 0], [0, 2]]
  assert is_unimodular(U) and is_unimodular(V)
  assert U @ A @ V == D


def _invariant_factors_by_minor_gcd(A):
  """Invariant factors from gcds of k x k minors; independent of any
  elimination strategy."""
  M = sy(A)
  r = min(A.rows, A.cols)
  gcds = []
  for k in range(1, r + 1):
    minors = []
    for rs in itertools.combinations(range(A.rows), k):
      for cs in itertools.combinations(range(A.cols), k):
        minors.append(int(M[rs, cs].det()))
    g = 0
    for v in minors:
      g = math.gcd(g, v)
    gcds.append(g)
  factors = []
  prev = 1
  for g in gcds:
    if g == 0:
      break
    factors.append(g // prev)
    prev = g
  return factors


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_matches_minor_gcd_oracle(A):
  D, U, V = snf(A)
  diag = [D.entry(i, i) for i in range(min(A.rows, A.cols))]
  nonzero = [d for d in diag if d != 0]
  assert nonzero == _invariant_factors_by_minor_gcd(A)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_matches_sympy(A):
  D, _, _ = snf(A)
  mine = sorted(abs(D.entry(i, i)) for i in range(min(A.rows, A.cols)))
  S = smith_normal_form(sy(A))
  theirs = sorted(abs(int(S[i, i])) for i in range(min(A.rows, A.cols)))
  assert mine == theirs


def test_kernel_worked_example():
  assert kernel_basis(IntMatrix.from_rows([[2, 4]])) == [[2, -1]]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_annihilates_and_has_right_rank(A):
  ker = kernel_basis(A)
  for v in ker:
    assert not any(A.apply(v))
  assert len(ker) == A.cols - rank(A)
  # saturation: no kernel vector of the full rational kernel is missed at
  # index level, i.e. the kernel basis solves for any sympy nullspace vector
  if ker:
    for w in sy(A).nullspace():
      denom = sympy.lcm([t.q for t in w])
      vec = [int(t * denom) for t in w]
      g = math.gcd(*vec) if len(vec) > 1 else abs(vec[0])
      vec = [x // g for x in vec] if g else vec
      assert express_in_rows(ker, vec) is not None


def test_cokernel_worked_examples():
  q = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
  assert q == AbelianQuotient(free_rank=0, invariant_factors=(6,))
  q2 = cokernel(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
  assert q2.free_rank == 1 and q2.invariant_factors == (6,)
  assert cokernel(IntMatrix.identity(3)).is_trivial


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_det_matches_sympy(A):
  if A.rows != A.cols:
    with pytest.raises(ValueError):
      det(A)
    return
  assert det(A) == int(sy(A).det())


def test_saturation_examples():
  assert saturate_row_lattice([[2, 4]], 2) == [[1, 2]]
  assert saturate_row_lattice([[2, 0], [0, 2]], 2) == [[1, 0], [0, 1]]
  assert saturate_row_lattice([], 3) == []
  # already saturated stays put
  assert saturate_row_lattice([[1, 2]], 2) == [[1, 2]]


@given(matrices(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_saturation_is_idempotent_and_contains(A):
  rows = A.row_list()
  sat = saturate_row_lattice(rows, A.cols)
  for r in rows:
    if any(r):
      assert express_in_rows(sat, r) is not None
  assert saturate_row_lattice(sat, A.cols) == sat


def test_complement_projection_quotient():
  P = complement_projection([[2, 4]], 2)
  # kernel is exactly the saturation of the sublattice
  assert not any(P.apply((1, 2)))
  assert any(P.apply((1, 0)))
  assert P.rows == 1
  # surjectivity: the projection of the standard basis spans Z^1
  img = row_lattice_basis([list(P.apply((1, 0))), list(P.apply((0, 1)))], 1)
  assert img == [[1]]


@given(matrices(max_dim=3))
@settings(max_examples=40, deadline=None)
def test_complement_projection_properties(A):
  rows = [r for r in A.row_list() if any(r)]
  P = complement_projection(rows, A.cols)
  sat = saturate_row_lattice(rows, A.cols)
  assert P.rows == A.cols - len(sat)
  for b in sat:
    assert not any(P.apply(b))
  D, _, _ = snf(P) if P.rows else (None, None, None)
  if D is not None:
    # surjective: all invariant factors are 1
    assert all(D.entry(i, i) == 1 for i in range(P.rows))


def test_express_in_rows_roundtrip():
  basis = [[1, 2, 0], [0, 3, 1]]
  v = [2, 1, -1]  # 2*b0 - 1*b1
  c = express_in_rows(basis, v)
  assert c == [2, -1]
  assert express_in_rows(basis, [1, 0, 0]) is None
  assert express_in_rows([], [0, 0]) == []
  assert express_in_rows([], [1, 0]) is None


def test_express_in_rows_rejects_a_length_off_the_basis_width():
  with pytest.raises(ValueError):
    express_in_rows([[1, 0], [0, 1]], [1, 2, 3])
  with pytest.raises(ValueError):
    express_in_rows([[1, 0], [0, 1]], [1])
  with pytest.raises(ValueError):
    express_in_rows([[1, 0], [0, 1, 0]], [1, 2])


def test_public_return_types():
  ker = kernel_basis(IntMatrix.from_rows([[1, 1, 0], [0, 2, 4]]))
  assert ker == [[2, -2, 1]]
  assert all(type(v) is list and all(type(x) is int for x in v) for v in ker)
  assert kernel_basis(IntMatrix.identity(2)) == []
  assert det(IntMatrix.zero(0, 0)) == 1
  assert type(det(IntMatrix.from_rows([[2, 1], [1, 1]]))) is int


def test_primitive():
  assert primitive((2, -4, 6)) == (1, -2, 3)
  assert primitive((0, 5)) == (0, 1)
  assert primitive((-3,)) == (-1,)
  with pytest.raises(ValueError):
    primitive((0, 0))


def test_matrix_validation():
  with pytest.raises(ValueError):
    IntMatrix(2, 2, (1, 2, 3))
  with pytest.raises(TypeError):
    IntMatrix(1, 1, (1.5,))
  with pytest.raises(ValueError):
    IntMatrix.from_rows([[1, 2], [3]])


def test_abelian_quotient_validation():
  with pytest.raises(ValueError):
    AbelianQuotient(free_rank=0, invariant_factors=(1,))
  with pytest.raises(ValueError):
    AbelianQuotient(free_rank=0, invariant_factors=(4, 2))
  AbelianQuotient(free_rank=2, invariant_factors=(2, 4, 12))
