"""Exact integer linear algebra over lattices.

Matrices are immutable, arbitrary-precision, and row-major.  The normal forms
(row Hermite, Smith) come with unimodular transformation matrices so callers
can track bases, kernels and cokernels exactly.  No floating point is used
anywhere in this package.

Each elimination exists once, on row lists, and the other modules call it
directly: _hermite (one Hermite pass), _snf_rows (the Smith form),
_adjugate (one Bareiss elimination for adjugates and determinants, det
included), _kernel_rows (the Hermite kernel) and _echelon_coords
(back-substitution against echelon rows).  The public functions wrap them,
and only they build an IntMatrix.  A question that reads no transform runs
_hermite alone: rank and row_lattice_basis on the rows, and
_extends_to_basis (is_smooth, is_unimodular) on their transpose, whose
pivots multiply to the gcd of the maximal minors.  Only the Hermite form
(_hnf_rows, behind hnf), the kernel and the Smith form carry their
transforms beside the matrix in augmented rows, and each row step on them
is one _row_op_gcd; the Hermite form and the kernel share _hermite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul


@dataclass(frozen=True)
class IntMatrix:
  """An immutable integer matrix.

  Attributes:
    rows: number of rows.
    cols: number of columns.
    entries: row-major tuple of length rows * cols.
  """

  rows: int
  cols: int
  entries: tuple[int, ...]

  def __post_init__(self):
    if self.rows < 0 or self.cols < 0:
      raise ValueError("negative dimensions")
    if len(self.entries) != self.rows * self.cols:
      raise ValueError("entries length %d does not match %dx%d"
                       % (len(self.entries), self.rows, self.cols))
    if not all(isinstance(e, int) for e in self.entries):
      raise TypeError("entries must be integers")

  @staticmethod
  def from_rows(rows: list) -> "IntMatrix":
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
      raise ValueError("ragged rows")
    return IntMatrix(m, n, tuple(int(x) for r in rows for x in r))

  @staticmethod
  def identity(n: int) -> "IntMatrix":
    return IntMatrix(n, n, tuple(1 if i == j else 0
                                 for i in range(n) for j in range(n)))

  @staticmethod
  def zero(m: int, n: int) -> "IntMatrix":
    return IntMatrix(m, n, (0,) * (m * n))

  def entry(self, i: int, j: int) -> int:
    return self.entries[i * self.cols + j]

  def row(self, i: int) -> tuple[int, ...]:
    return self.entries[i * self.cols:(i + 1) * self.cols]

  def row_list(self) -> list:
    return [list(self.row(i)) for i in range(self.rows)]

  def transpose(self) -> "IntMatrix":
    return IntMatrix(self.cols, self.rows,
                     tuple(self.entry(i, j)
                           for j in range(self.cols) for i in range(self.rows)))

  def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
    if self.cols != other.rows:
      raise ValueError("shape mismatch %dx%d @ %dx%d"
                       % (self.rows, self.cols, other.rows, other.cols))
    rows = [self.row(i) for i in range(self.rows)]
    cols = [other.entries[j::other.cols] for j in range(other.cols)]
    return IntMatrix(self.rows, other.cols,
                     tuple(sum(map(mul, r, c)) for r in rows for c in cols))

  def apply(self, v) -> tuple[int, ...]:
    """Matrix-vector product A*v with v a length-cols sequence."""
    if len(v) != self.cols:
      raise ValueError("vector length %d does not match cols %d" % (len(v), self.cols))
    return tuple(sum(map(mul, self.row(i), v)) for i in range(self.rows))


@dataclass(frozen=True)
class AbelianQuotient:
  """Structure of a finitely generated abelian group: Z^free_rank + sum of
  Z/d_i with the d_i forming a divisibility chain, every d_i >= 2."""

  free_rank: int
  invariant_factors: tuple[int, ...]

  def __post_init__(self):
    if self.free_rank < 0:
      raise ValueError("negative free rank")
    for d in self.invariant_factors:
      if d < 2:
        raise ValueError("invariant factor %d < 2" % d)
    for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
      if b % a != 0:
        raise ValueError("broken divisibility chain %s" % (self.invariant_factors,))

  @property
  def is_trivial(self) -> bool:
    return self.free_rank == 0 and not self.invariant_factors


def _row_op_gcd(rows, r0, r1, c):
  """Left-multiply the rows by the 2x2 unimodular matrix that puts the gcd
  at (r0, c) and zero at (r1, c).

  The rows are augmented: each carries its transform's row after its own
  entries, so one step updates both.  When the pivot already divides the
  target a plain elimination is used; the Bezout transform is reserved for
  the strict-gcd case so that repeated calls always make progress.
  """
  a, b = rows[r0][c], rows[r1][c]
  if b == 0:
    return
  if a == 0:
    rows[r0], rows[r1] = rows[r1], rows[r0]
    return
  ra, rb = rows[r0], rows[r1]
  if b % a == 0:
    q = b // a
    rows[r1] = [v - q * u for u, v in zip(ra, rb)]
    return
  g, x, y = _xgcd(a, b)
  p, q = a // g, b // g
  rows[r0] = [x * u + y * v for u, v in zip(ra, rb)]
  rows[r1] = [-q * u + p * v for u, v in zip(ra, rb)]


def _xgcd(a: int, b: int):
  """Extended gcd: returns (g, x, y) with g = ax + by, g >= 0 when possible."""
  x0, x1, y0, y1 = 1, 0, 0, 1
  while b:
    q, a, b = a // b, b, a % b
    x0, x1 = x1, x0 - q * x1
    y0, y1 = y1, y0 - q * y1
  if a < 0:
    a, x0, y0 = -a, -x0, -y0
  return a, x0, y0


def _hermite(rows, cols, top: int = 0) -> int:
  """Bring the rows from top on into row Hermite form over the columns
  cols, in place, and return the index after the last pivot row.

  Pivots are made positive, and the entries above a pivot, in the rows
  from top on, are reduced into [0, pivot).  Every step runs on whole rows
  (_row_op_gcd), so entries outside cols, such as a transform carried
  beside the matrix, take the same steps.
  """
  m = len(rows)
  r = top
  for c in cols:
    if r == m:
      break
    piv = next((i for i in range(r, m) if rows[i][c]), None)
    if piv is None:
      continue
    if piv != r:
      rows[r], rows[piv] = rows[piv], rows[r]
    for i in range(r + 1, m):
      if rows[i][c]:
        _row_op_gcd(rows, r, i, c)
    if rows[r][c] < 0:
      rows[r] = [-x for x in rows[r]]
    p = rows[r]
    for i in range(top, r):
      q = rows[i][c] // p[c]
      if q:
        rows[i] = [u - q * v for u, v in zip(rows[i], p)]
    r += 1
  return r


def _hnf_rows(a, m: int, n: int) -> tuple[list, list]:
  """Row Hermite normal form of an m x n matrix given as a list of rows.

  Returns (H, U) as lists of rows, with U unimodular and H = U*A; see hnf
  for the convention.  One Hermite pass (_hermite) runs on the rows of
  [A | I], whose left block ends as H and right block as U; the self-check
  is that every row's left block is its right block times A.
  """
  rows = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a)]
  _hermite(rows, range(n))
  cols = [[row[j] for row in a] for j in range(n)]
  for row in rows:
    u = row[n:]
    assert row[:n] == [sum(map(mul, u, c)) for c in cols]
  return [row[:n] for row in rows], [row[n:] for row in rows]


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
  """Row Hermite normal form.

  Returns (H, U) with U unimodular and H = U*A.  Convention: pivots are
  positive and leftmost per row, entries above a pivot are reduced into
  [0, pivot), zero rows are at the bottom.  The elimination runs on row
  lists (_hnf_rows); only the result is wrapped into matrices.
  """
  m, n = A.rows, A.cols
  H, U = _hnf_rows(A.row_list(), m, n)
  return (IntMatrix(m, n, tuple(x for r in H for x in r)),
          IntMatrix(m, m, tuple(x for r in U for x in r)))


def rank(A: IntMatrix) -> int:
  """The number of pivots of one Hermite pass (_hermite) over the rows."""
  return _hermite(A.row_list(), range(A.cols))


def _snf_rows(rows, m: int, n: int) -> tuple[list, list, list]:
  """Smith normal form of an m x n matrix given as a list of rows.

  Returns (D, U, V) as lists of rows, with U, V unimodular and D = U*A*V;
  see snf for the convention.  The row steps run on the rows of [A | I],
  which carry U beside the matrix; the column steps are row steps on the
  transpose, whose rows carry V's columns the same way, and both go through
  _row_op_gcd.  The self-checks U*A*V == D and the divisibility chain are
  computed on the lists.
  """
  a = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
  v = [[int(i == j) for j in range(n)] for i in range(n)]  # V's columns, as rows

  def clear_position(t):
    nonlocal a, v
    while True:
      for i in range(t + 1, m):
        _row_op_gcd(a, t, i, t)
      if all(a[t][j] == 0 for j in range(t + 1, n)):
        break
      cols = [[row[j] for row in a] + v[j] for j in range(n)]
      for j in range(t + 1, n):
        _row_op_gcd(cols, t, j, t)
      v = [c[m:] for c in cols]
      a = [[c[i] for c in cols] + row[n:] for i, row in enumerate(a)]
      if all(a[i][t] == 0 for i in range(t + 1, m)):
        break

  t = 0
  while t < min(m, n):
    piv = next(((i, j) for i in range(t, m) for j in range(t, n)
                if a[i][j] != 0), None)
    if piv is None:
      break
    i, j = piv
    if i != t:
      a[t], a[i] = a[i], a[t]
    if j != t:
      for row in a:
        row[t], row[j] = row[j], row[t]
      v[t], v[j] = v[j], v[t]
    clear_position(t)
    t += 1

  # Divisibility chain: repair adjacent violations and re-clear.
  changed = True
  while changed:
    changed = False
    for i in range(min(m, n) - 1):
      x, y = a[i][i], a[i + 1][i + 1]
      if x != 0 and y % x != 0:
        # fold the next diagonal entry into column i, then re-eliminate
        for row in a:
          row[i] += row[i + 1]
        v[i] = [p + q for p, q in zip(v[i], v[i + 1])]
        clear_position(i)
        clear_position(i + 1)
        changed = True

  for i in range(min(m, n)):
    if a[i][i] < 0:
      a[i] = [-x for x in a[i]]

  work = [row[:n] for row in a]
  u = [row[n:] for row in a]
  cols = [[row[j] for row in rows] for j in range(n)]
  ua = [[sum(map(mul, r, c)) for c in cols] for r in u]
  assert [[sum(map(mul, r, c)) for c in v] for r in ua] == work
  diag = [work[i][i] for i in range(min(m, n))]
  assert all(y % x == 0 for x, y in zip(diag, diag[1:]) if x != 0)
  return work, u, [list(r) for r in zip(*v)]


def snf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
  """Smith normal form.

  Returns (D, U, V) with U, V unimodular and D = U*A*V diagonal with
  nonnegative entries forming a divisibility chain.  The elimination runs on
  row lists (_snf_rows); only the result is wrapped into matrices.
  """
  m, n = A.rows, A.cols
  D, U, V = _snf_rows(A.row_list(), m, n)
  return (IntMatrix(m, n, tuple(x for r in D for x in r)),
          IntMatrix(m, m, tuple(x for r in U for x in r)),
          IntMatrix(n, n, tuple(x for r in V for x in r)))


def _kernel_rows(rows, n: int) -> list:
  """Basis of the right kernel {x in Z^n : r.x = 0 for each row r}, as
  tuples, in row Hermite normal form, so it is canonical.

  One Hermite pass (_hermite) runs over the rows of [A^T | I]: the first k
  columns give the Hermite form of A^T beside its transform, and the rows
  that vanish on that block are the transform rows spanning the kernel.
  The pass goes on over the right block among those rows alone, so the
  kernel comes out already in Hermite form.  The self-check is that every
  row's left block is A times its right block, which on the kernel rows
  says A*x == 0.
  """
  k = len(rows)
  aug = []
  for j in range(n):
    row = [r[j] for r in rows] + [0] * n
    row[k + j] = 1
    aug.append(row)
  r = _hermite(aug, range(k))
  _hermite(aug, range(k, k + n), r)
  for row in aug:
    x = row[k:]
    assert row[:k] == [sum(map(mul, a, x)) for a in rows]
  return [tuple(row[k:]) for row in aug[r:]]


def kernel_basis(A: IntMatrix) -> list:
  """Basis of the right kernel {x in Z^cols : A*x = 0}, as lists, in row
  Hermite normal form (_kernel_rows)."""
  return [list(x) for x in _kernel_rows(A.row_list(), A.cols)]


def cokernel(A: IntMatrix) -> AbelianQuotient:
  """Structure of Z^rows / column-span(A)."""
  D, _, _ = _snf_rows(A.row_list(), A.rows, A.cols)
  diag = [D[i][i] for i in range(min(A.rows, A.cols))]
  nonzero = [d for d in diag if d != 0]
  return AbelianQuotient(free_rank=A.rows - len(nonzero),
                         invariant_factors=tuple(d for d in nonzero if d > 1))


def _adjugate(rows):
  """Adjugate and determinant of a square integer matrix given as rows.

  Returns (adj, det), adj as a list of rows, or (None, 0) for a singular
  matrix.  One fraction-free Gauss-Jordan elimination (Bareiss 1968) on
  [R | I]: every division by the previous pivot is exact, and at the end
  the left block is det(PR) I and the right block adj(PR) = det(PR) (PR)^-1
  for the row permutation P of the pivot swaps; folding P's sign into both
  gives det(R) and adj(R).  A column with no nonzero pivot means det = 0.
  The 0 x 0 matrix has determinant 1.
  """
  k = len(rows)
  w = [list(r) + [0] * k for r in rows]
  for i in range(k):
    w[i][k + i] = 1
  sign = 1
  prev = 1
  for c in range(k):
    if not w[c][c]:
      piv = next((i for i in range(c + 1, k) if w[i][c]), None)
      if piv is None:
        return None, 0
      w[c], w[piv] = w[piv], w[c]
      sign = -sign
    p = w[c]
    a = p[c]
    for i in range(k):
      if i != c:
        b = w[i][c]
        w[i] = [(x * a - y * b) // prev for x, y in zip(w[i], p)]
    prev = a
  if sign < 0:
    return [[-x for x in row[k:]] for row in w], -prev
  return [row[k:] for row in w], prev


def det(A: IntMatrix) -> int:
  """Exact determinant, from the fraction-free elimination of _adjugate."""
  if A.rows != A.cols:
    raise ValueError("determinant of non-square matrix")
  return _adjugate(A.row_list())[1]


def _extends_to_basis(rows, n: int) -> bool:
  """Whether the rows, vectors of length n, extend to a basis of Z^n.

  They do iff the gcd of the k x k minors of the k x n row matrix A is 1.
  That gcd is unchanged by unimodular row steps on A^T, and the Hermite
  form of A^T is upper triangular on its first k rows and zero below, with
  one nonzero k x k minor: the product of its pivots, or none when a column
  gets no pivot (Newman, Integral Matrices, 1972, Ch. II).  So one Hermite
  pass (_hermite) over A^T decides it: every one of the k columns must get
  a pivot, and every pivot must be 1.  The empty row list (k = 0)
  extends.
  """
  k = len(rows)
  t = [[r[j] for r in rows] for j in range(n)]
  return _hermite(t, range(k)) == k and all(t[i][i] == 1 for i in range(k))


def is_unimodular(A: IntMatrix) -> bool:
  """Whether A is square with determinant +-1: its rows extend to, so
  form, a basis (_extends_to_basis)."""
  return A.rows == A.cols and _extends_to_basis(A.row_list(), A.cols)


def row_lattice_basis(vectors: list, dim: int) -> list:
  """Canonical (HNF) basis of the sublattice of Z^dim generated by vectors:
  the nonzero rows of one Hermite pass (_hermite)."""
  rows = [list(v) for v in vectors]
  return rows[:_hermite(rows, range(dim))]


def saturate_row_lattice(vectors: list, dim: int) -> list:
  """Canonical basis of {x in Z^dim : n*x in the lattice for some n > 0}."""
  if not vectors:
    return []
  perps = _kernel_rows(vectors, dim)
  if not perps:
    return [[int(i == j) for j in range(dim)] for i in range(dim)]
  return [list(x) for x in _kernel_rows(perps, dim)]


def _echelon_coords(rows, v) -> list | None:
  """Integer coefficients c with sum(c_i * rows_i) = v, or None.

  The rows are echelon: each nonzero row is zero at the pivot (leftmost
  nonzero) columns of the rows before it, and zero rows get coefficient 0.
  One pass back-substitutes v against the pivots.
  """
  coeffs = []
  rem = list(v)
  for row in rows:
    piv = next((j for j, x in enumerate(row) if x), None)
    c = 0
    if piv is not None:
      c, r = divmod(rem[piv], row[piv])
      if r:
        return None
      rem = [a - c * b for a, b in zip(rem, row)]
    coeffs.append(c)
  return None if any(rem) else coeffs


def complement_projection(sub_basis: list, dim: int) -> IntMatrix:
  """Projection Z^dim -> Z^(dim-r) whose kernel is the saturation of the row
  lattice spanned by sub_basis.

  The projection is surjective, so it realizes the quotient of Z^dim by the
  saturated sublattice as a lattice.
  """
  sat = saturate_row_lattice(sub_basis, dim)
  r = len(sat)
  D, _, V = _snf_rows(sat, r, dim)
  for i in range(r):
    assert D[i][i] == 1, "saturated sublattice must have unit elementary divisors"
  # rows of V^-1 form a basis of Z^dim whose first r rows span the sublattice;
  # coordinates in that basis are x*V, so dropping the first r gives the quotient.
  P = IntMatrix(dim - r, dim, tuple(V[i][j] for j in range(r, dim)
                                    for i in range(dim)))
  for b in sat:
    assert not any(P.apply(b))
  return P


def primitive(v) -> tuple[int, ...]:
  """Scale a nonzero integer vector down by the gcd of its entries."""
  g = 0
  for x in v:
    g = gcd(g, x)
  if g == 0:
    raise ValueError("zero vector has no primitive form")
  return tuple(x // g for x in v)
