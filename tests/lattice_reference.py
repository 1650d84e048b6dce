"""The quotient-by-units coordinate change as logfan once computed it.

Each function here answers its question the way logfan did before the Smith
form moved onto row lists: snf eliminates on lists but checks itself on
IntMatrix products, solve takes a fresh Smith form for every right-hand
side, and the monoid functions lift each Hilbert basis element of the
projected cone through solve, also when the projection is the identity.
The tests compare logfan's row-list Smith form and its one coordinate
change per monoid against these.  is_kummer's injectivity is kept as it
was decided from a kernel basis of the ambient map and two stacked ranks.

The Hermite form and the Hermite kernel are kept as they were before the
eliminations ran on augmented rows: the Hermite form carries its transform
as a second row list through a two-matrix row step, and the kernel takes
one Hermite form of A^T, keeps the transform rows that map to zero, and
makes them canonical with a second Hermite form.  Self-checks raise
AssertionError explicitly, so they also run under python -O.

express_in_rows is the solver logfan used before its bases were read as
the echelon rows they are: it takes a Hermite form with its transform of
the basis on every call and carries the coefficients back through it.
The tests and oracles that solve against an arbitrary independent basis
use it.
"""

from logfan.cone import Cone, _dot, _neg, hilbert_basis
from logfan.lattice import (
    IntMatrix,
    _echelon_coords,
    _hnf_rows,
    _xgcd,
    hnf,
    kernel_basis,
    rank,
    row_lattice_basis,
)
from logfan.monoid import MAX_AMBIENT_RANK, AffineMonoid, _gp_basis, membership


def _pair_row_op_gcd(rows, urows, r0, r1, c):
  """The 2x2 unimodular row step on a matrix and, separately, its
  transform: gcd at (r0, c), zero at (r1, c)."""
  a, b = rows[r0][c], rows[r1][c]
  if b == 0:
    return
  if a == 0:
    rows[r0], rows[r1] = rows[r1], rows[r0]
    urows[r0], urows[r1] = urows[r1], urows[r0]
    return
  if b % a == 0:
    q = b // a
    rows[r1] = [v - q * u for u, v in zip(rows[r0], rows[r1])]
    urows[r1] = [v - q * u for u, v in zip(urows[r0], urows[r1])]
    return
  g, x, y = _xgcd(a, b)
  p, q = a // g, b // g
  for mat in (rows, urows):
    ra, rb = mat[r0], mat[r1]
    mat[r0] = [x * u + y * v for u, v in zip(ra, rb)]
    mat[r1] = [-q * u + p * v for u, v in zip(ra, rb)]


def reference_hnf_rows(a, m: int, n: int):
  """Row Hermite form (H, U) of the m x n rows a, with H = U*A, the
  transform kept as its own row list."""
  rows = [list(r) for r in a]
  urows = [[int(i == j) for j in range(m)] for i in range(m)]
  r = 0
  for c in range(n):
    piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
    if piv is None:
      continue
    if piv != r:
      rows[r], rows[piv] = rows[piv], rows[r]
      urows[r], urows[piv] = urows[piv], urows[r]
    for i in range(r + 1, m):
      _pair_row_op_gcd(rows, urows, r, i, c)
    if rows[r][c] < 0:
      rows[r] = [-x for x in rows[r]]
      urows[r] = [-x for x in urows[r]]
    p = rows[r][c]
    for i in range(r):
      q = rows[i][c] // p
      if q:
        rows[i] = [u - q * v for u, v in zip(rows[i], rows[r])]
        urows[i] = [u - q * v for u, v in zip(urows[i], urows[r])]
    r += 1
    if r == m:
      break
  cols = [[row[j] for row in a] for j in range(n)]
  if [[sum(x * y for x, y in zip(u, c)) for c in cols] for u in urows] != rows:
    raise AssertionError("U*A != H")
  return rows, urows


def express_in_rows(basis: list, v) -> list | None:
  """Integer coefficients c with sum(c_i * basis_i) = v, or None.

  basis need not be square but must consist of independent rows.  v is
  solved for against the Hermite form H = U*B of the basis (_echelon_coords),
  and its coefficients c*H = c*U*B are carried back through U.

  Raises:
    ValueError: if v or a basis row does not have the length of the first
      basis row.
  """
  if not basis:
    return [] if not any(v) else None
  m, n = len(basis), len(basis[0])
  for row in [v] + list(basis):
    if len(row) != n:
      raise ValueError("vector %s does not have the basis width %d"
                       % (tuple(row), n))
  H, U = _hnf_rows(basis, m, n)
  coeffs = _echelon_coords(H, v)
  if coeffs is None:
    return None
  return [sum(c * u[k] for c, u in zip(coeffs, U)) for k in range(m)]


def reference_kernel_rows(rows, n: int) -> list:
  """Hermite basis of the right kernel of rows, by two Hermite forms."""
  H, U = reference_hnf_rows([[r[j] for r in rows] for j in range(n)], n,
                            len(rows))
  vecs = [u for h, u in zip(H, U) if not any(h)]
  if not vecs:
    return []
  K, _ = reference_hnf_rows(vecs, len(vecs), n)
  out = [tuple(k) for k in K if any(k)]
  for x in out:
    if any(_dot(r, x) for r in rows):
      raise AssertionError("kernel vector %s misses a row" % (x,))
  return out


def reference_snf(A: IntMatrix):
  """Smith normal form (D, U, V) with D = U*A*V, checked on IntMatrix."""
  m, n = A.rows, A.cols
  work = A.row_list()
  u = IntMatrix.identity(m).row_list()
  v = IntMatrix.identity(n).row_list()  # stored transposed: v holds columns as rows

  def col_op_gcd(c0, c1, r):
    a, b = work[r][c0], work[r][c1]
    if b == 0:
      return
    if a == 0:
      for row in work:
        row[c0], row[c1] = row[c1], row[c0]
      v[c0], v[c1] = v[c1], v[c0]
      return
    if b % a == 0:
      q = b // a
      for row in work:
        row[c1] -= q * row[c0]
      v[c1] = [y_ - q * x_ for x_, y_ in zip(v[c0], v[c1])]
      return
    g, x, y = _xgcd(a, b)
    p, q = a // g, b // g
    for row in work:
      s, t = row[c0], row[c1]
      row[c0] = x * s + y * t
      row[c1] = -q * s + p * t
    s, t = v[c0], v[c1]
    v[c0] = [x * a_ + y * b_ for a_, b_ in zip(s, t)]
    v[c1] = [-q * a_ + p * b_ for a_, b_ in zip(s, t)]

  def clear_position(t):
    while True:
      for i in range(t + 1, m):
        _pair_row_op_gcd(work, u, t, i, t)
      if all(work[t][j] == 0 for j in range(t + 1, n)):
        break
      for j in range(t + 1, n):
        col_op_gcd(t, j, t)
      if all(work[i][t] == 0 for i in range(t + 1, m)):
        break

  t = 0
  while t < min(m, n):
    piv = next(((i, j) for i in range(t, m) for j in range(t, n)
                if work[i][j] != 0), None)
    if piv is None:
      break
    i, j = piv
    if i != t:
      work[t], work[i] = work[i], work[t]
      u[t], u[i] = u[i], u[t]
    if j != t:
      for row in work:
        row[t], row[j] = row[j], row[t]
      v[t], v[j] = v[j], v[t]
    clear_position(t)
    t += 1

  changed = True
  while changed:
    changed = False
    for i in range(min(m, n) - 1):
      a, b = work[i][i], work[i + 1][i + 1]
      if a != 0 and b % a != 0:
        for row_idx in range(m):
          work[row_idx][i] += work[row_idx][i + 1]
        v[i] = [x + y for x, y in zip(v[i], v[i + 1])]
        clear_position(i)
        clear_position(i + 1)
        changed = True

  for i in range(min(m, n)):
    if work[i][i] < 0:
      work[i] = [-x for x in work[i]]
      u[i] = [-x for x in u[i]]

  D = IntMatrix.from_rows(work) if work else IntMatrix.zero(m, n)
  U = IntMatrix.from_rows(u) if u else IntMatrix.identity(m)
  V = IntMatrix.from_rows(v).transpose() if v else IntMatrix.identity(n)
  if U @ A @ V != D:
    raise AssertionError("U*A*V != D")
  diag = [D.entry(i, i) for i in range(min(m, n))]
  if not all(b % a == 0 for a, b in zip(diag, diag[1:]) if a != 0):
    raise AssertionError("broken divisibility chain %s" % (diag,))
  return D, U, V


def reference_solve(A: IntMatrix, b):
  """One integer solution x of A*x = b, or None, from a fresh Smith form."""
  D, U, V = reference_snf(A)
  ub = U.apply(b)
  z = [0] * A.cols
  for i in range(min(A.rows, A.cols)):
    d = D.entry(i, i)
    if d:
      if ub[i] % d != 0:
        return None
      z[i] = ub[i] // d
  x = V.apply(z)
  if A.apply(x) != tuple(b):
    return None
  return x


def reference_complement_projection(sub_basis, dim: int) -> IntMatrix:
  """Projection Z^dim -> Z^(dim-r) killing the saturated span of sub_basis,
  through IntMatrix kernels, Hermite forms and reference_snf."""
  sat = []
  if sub_basis:
    perps = kernel_basis(IntMatrix.from_rows(sub_basis))
    if perps:
      sat = kernel_basis(IntMatrix.from_rows(perps))
    else:
      H, _ = hnf(IntMatrix.identity(dim))
      sat = [list(H.row(i)) for i in range(H.rows) if any(H.row(i))]
  r = len(sat)
  if r == 0:
    return IntMatrix.identity(dim)
  D, U, V = reference_snf(IntMatrix.from_rows(sat))
  if any(D.entry(i, i) != 1 for i in range(r)):
    raise AssertionError("saturated sublattice must have unit elementary divisors")
  proj_cols = [[V.entry(i, j) for i in range(dim)] for j in range(r, dim)]
  if not proj_cols:
    return IntMatrix.zero(0, dim)
  return IntMatrix.from_rows(proj_cols)


def reference_cone_lattice_generators(ineqs, eqs, basis_rows, d) -> list:
  """Generators of the lattice points of a cone, each Hilbert basis element
  of the projected cone lifted by its own reference_solve."""
  if not basis_rows:
    return []
  k = len(basis_rows)
  ineq_c = [[_dot(b, nu) for b in basis_rows] for nu in ineqs]
  eq_c = [[_dot(b, s) for b in basis_rows] for s in eqs]
  C = Cone.from_inequalities(ineq_c, eq_c, k)
  gens_c = []
  for b in C.lineality_basis:
    gens_c.append(b)
    gens_c.append(_neg(b))
  if C.rays:
    pi = reference_complement_projection([list(b) for b in C.lineality_basis], k)
    img = Cone.from_rays([pi.apply(r) for r in C.rays], pi.rows)
    for h in hilbert_basis(img):
      c = reference_solve(pi, h)
      if c is None or not C.contains(c):
        raise AssertionError("no preimage of %s in the cone" % (h,))
      gens_c.append(c)
  out = []
  for c in gens_c:
    x = [0] * d
    for ci, b in zip(c, basis_rows):
      x = [a + ci * t for a, t in zip(x, b)]
    out.append(tuple(x))
  return out


def reference_saturation_gens(P) -> tuple:
  """The generator tuple of the saturation of P."""
  C = P.cone
  basis = [list(b) for b in _gp_basis(P)]
  gens = reference_cone_lattice_generators(C.facet_normals, C.span_normals,
                                           basis, P.ambient_rank)
  return AffineMonoid.make(gens, P.ambient_rank).gens


def reference_structure(P) -> tuple:
  """(is_saturated, is_sharp, units, sharpening generators, sharpening rank)
  with the units read off the recession cone and projected away by
  reference_complement_projection."""
  C = P.cone
  units = row_lattice_basis([list(g) for g in P.gens if C.contains(_neg(g))],
                            P.ambient_rank)
  is_saturated = all(membership(P, g) for g in reference_saturation_gens(P))
  pi = reference_complement_projection(units, P.ambient_rank)
  sharp = AffineMonoid.make([pi.apply(g) for g in P.gens], pi.rows)
  return is_saturated, not units, units, sharp.gens, sharp.ambient_rank


def reference_preimage_generators(theta) -> list:
  """Generators of {x in source group : theta(x) in target monoid}, in
  coefficient coordinates first and carried to the ambient at the end."""
  P, Q, M = theta.source, theta.target, theta.gp_matrix
  bp = [list(b) for b in _gp_basis(P)]
  k = len(bp)
  if k == 0:
    return []
  n_cols = [M.apply(b) for b in bp]
  if reference_structure(Q)[0]:
    bq = [list(b) for b in _gp_basis(Q)]
    block = [[n_cols[j][i] for j in range(k)] + [-bq[j][i] for j in range(len(bq))]
             for i in range(Q.ambient_rank)]
    ker = kernel_basis(IntMatrix.from_rows(block)) if block else []
    lam = row_lattice_basis([v[:k] for v in ker], k)
    CQ = Q.cone
    ineq_c = [[sum(nu[i] * n_cols[j][i] for i in range(Q.ambient_rank))
               for j in range(k)] for nu in CQ.facet_normals]
    eq_c = [[sum(s[i] * n_cols[j][i] for i in range(Q.ambient_rank))
             for j in range(k)] for s in CQ.span_normals]
    coeff_gens = reference_cone_lattice_generators(ineq_c, eq_c, lam, k)
  else:
    m = len(Q.gens)
    if k + m > MAX_AMBIENT_RANK:
      raise ValueError(
          "exactness for a non-saturated target needs coefficient rank %d > %d"
          % (k + m, MAX_AMBIENT_RANK))
    eqs = [[n_cols[j][i] for j in range(k)] + [-Q.gens[t][i] for t in range(m)]
           for i in range(Q.ambient_rank)]
    ineqs = [[0] * k + [1 if t == s else 0 for t in range(m)] for s in range(m)]
    eye = [[1 if i == j else 0 for j in range(k + m)] for i in range(k + m)]
    coeff_gens = [g[:k] for g in
                  reference_cone_lattice_generators(ineqs, eqs, eye, k + m)]
  out = []
  for c in coeff_gens:
    x = [0] * P.ambient_rank
    for ci, b in zip(c, bp):
      x = [a + ci * t for a, t in zip(x, b)]
    if any(x):
      out.append(tuple(x))
  return out


def reference_is_kummer(theta) -> bool:
  """is_kummer with injectivity on P^gp decided from the kernel K of the
  ambient map: P^gp meets K only in 0 iff stacking K under a basis of P^gp
  adds len(K) to its rank."""
  P, Q, M = theta.source, theta.target, theta.gp_matrix
  bp = [list(b) for b in _gp_basis(P)]
  K = kernel_basis(M)
  if K:
    stacked = rank(IntMatrix.from_rows(bp + K)) if bp else len(K)
    if stacked != (rank(IntMatrix.from_rows(bp)) if bp else 0) + len(K):
      return False
  img_cone = Cone.from_rays([M.apply(g) for g in P.gens], Q.ambient_rank)
  return all(img_cone.contains(q) for q in Q.gens)
