"""Test-only reference code for the cone enumerations of logfan.cone.

The library converts between rays and facets by one double description
started from one elimination, reads a pointed cone's rays from the incidences
of that conversion, lists faces by closing the facets' ray sets under
intersection, and finds the lattice points of a simplicial parallelepiped
by enumerating the group of the lattice modulo the rays.  This module keeps
the earlier code as a differential oracle:

- conversion by one kernel solve per active set of d - 1 constraints, with
  the lean row eliminations _kernel_small and _rank_small;
- a simplicial cone's facets by one kernel solve per generator, its
  ray-facet incidence by dot products, and the zero cone built directly;
- faces by one cone per subset of facet normals, and by one conversion per
  closed ray set of the incidence;
- a face built from the whole cone's stored data, its facet normals as
  orthogonal projections through the adjugate of a Gram matrix;
- parallelepiped points by a walk over every integer point of the bounding
  box;
- Hilbert bases reduced by a recursive search for a way to write each
  candidate as a sum of basis elements;
- adjugates by one cofactor (a minor's determinant) per entry;
- the choice of independent rows by the echelon that never divides, which
  picked a conversion's start rows before _bareiss did;
- the triangulation by building one cone per facet and recursing on it;
- the face test by building the smallest face holding a cone as a cone;
- an inequality system's cone by its own double description on every call,
  from an emptied conversion cache, with no lookup of the system.
"""

import itertools

from math import gcd

from logfan.cone import (
    Cone,
    _cone_from_gens,
    _convert,
    _dot,
    _generators,
    _neg,
    _order_key,
    _pick,
    _pointed_extreme_rays,
)
from logfan.lattice import _adjugate, _kernel_rows, primitive


def _kernel_small(rows, d):
  """Primitive spanning vectors of the rational kernel of the given rows.

  Lean integer Gaussian elimination for the hot paths.  The vectors span the
  kernel over Q; use _kernel_rows when the integer lattice matters.
  """
  mat = [list(r) for r in rows if any(r)]
  pivots = []
  r = 0
  for c in range(d):
    piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
    if piv is None:
      continue
    mat[r], mat[piv] = mat[piv], mat[r]
    a = mat[r][c]
    for i in range(len(mat)):
      if i != r and mat[i][c] != 0:
        b = mat[i][c]
        row = [x * a - y * b for x, y in zip(mat[i], mat[r])]
        g = 0
        for x in row:
          g = gcd(g, x)
        mat[i] = [x // g for x in row] if g else row
    pivots.append((r, c))
    r += 1
  pivot_cols = {c for _, c in pivots}
  basis = []
  for fc in range(d):
    if fc in pivot_cols:
      continue
    denom = 1
    for pr, pc in pivots:
      denom = denom * mat[pr][pc] // gcd(denom, mat[pr][pc])
    denom = abs(denom)
    vec = [0] * d
    vec[fc] = denom
    for pr, pc in pivots:
      vec[pc] = -mat[pr][fc] * (denom // mat[pr][pc])
    basis.append(list(primitive(vec)))
  return basis


def _rank_small(rows, d):
  mat = [list(r) for r in rows if any(r)]
  r = 0
  for c in range(d):
    piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
    if piv is None:
      continue
    mat[r], mat[piv] = mat[piv], mat[r]
    a = mat[r][c]
    for i in range(r + 1, len(mat)):
      if mat[i][c] != 0:
        b = mat[i][c]
        mat[i] = [x * a - y * b for x, y in zip(mat[i], mat[r])]
    r += 1
  return r


def reference_zero_cone(d: int) -> Cone:
  eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
  return Cone(ambient_rank=d, rays=(), lineality_basis=(),
              facet_normals=(), facet_rays=(), span_normals=eye, _dim=0)


def reference_simplicial_cone(gens: tuple, d: int) -> Cone:
  """The cone on sorted primitive independent generators: every generator
  is extreme, and each facet drops one generator."""
  gen_rows = [list(g) for g in gens]
  dim = _rank_small(gen_rows, d)
  if dim != len(gens):
    raise ValueError("generators %s are dependent" % (gens,))
  span_normals = _kernel_rows(gen_rows, d) if dim < d else []
  normals = []
  for i in range(len(gens)):
    rest = [gen_rows[j] for j in range(len(gens)) if j != i]
    ker = _kernel_small(rest + [list(s) for s in span_normals], d)
    e = _dot(ker[0], gens[i]) if len(ker) == 1 else 0
    if e == 0:
      raise RuntimeError("no facet normal opposite generator %s" % (gens[i],))
    nu = ker[0]
    if e < 0:
      nu = [-x for x in nu]
    normals.append(tuple(nu))
  normals.sort()
  facet_rays = [sum(1 << j for j, g in enumerate(gens) if _dot(nu, g) == 0)
                for nu in normals]
  return Cone(ambient_rank=d, rays=gens, lineality_basis=(),
              facet_normals=tuple(normals), facet_rays=tuple(facet_rays),
              span_normals=tuple(span_normals), _dim=len(gens))


def reference_det(rows):
  """Determinant by cofactor expansion along the first row: independent of
  the forward Bareiss elimination of _det_rows (behind det and
  is_unimodular) and of the Gauss-Jordan one of _bareiss (behind a
  conversion's start and _adjugate)."""
  if not rows:
    return 1
  return sum((-1) ** j * x * reference_det([r[:j] + r[j + 1:] for r in rows[1:]])
             for j, x in enumerate(rows[0]) if x)


def reference_independent(echelon, row) -> bool:
  """Add row to the echelon rows when it is independent of them, and return
  whether it was added.

  echelon is a list of (pivot column, row), each row zero at the pivot
  columns of the rows before it; reducing in that order leaves a new row
  zero at every pivot column, so it is independent iff something remains.
  Nothing is divided, so the entries double in bit length with each row.
  """
  row = list(row)
  for c, p in echelon:
    x = row[c]
    if x:
      row = [a * p[c] - b * x for a, b in zip(row, p)]
  for c, x in enumerate(row):
    if x:
      echelon.append((c, row))
      return True
  return False


def reference_adjugate(rows):
  """Adjugate of a square integer matrix given as a list of rows."""
  k = len(rows)
  if k == 0:
    return []
  if k == 1:
    return [[1]]
  adj = [[0] * k for _ in range(k)]
  for i in range(k):
    for j in range(k):
      minor = [[rows[r][c] for c in range(k) if c != j]
               for r in range(k) if r != i]
      cof = reference_det(minor)
      if (i + j) % 2:
        cof = -cof
      adj[j][i] = cof
  return adj


def reference_simplicial_pieces(sigma: Cone):
  """Triangulate a strictly convex cone by fanning out from its first extreme
  ray.  Yields tuples of independent rays covering sigma without overlap of
  interiors."""
  if len(sigma.rays) == sigma.dim:
    yield sigma.rays
    return
  r0 = sigma.rays[0]
  for nu in sigma.facet_normals:
    if _dot(nu, r0) == 0:
      continue
    facet_rays = [r for r in sigma.rays if _dot(nu, r) == 0]
    facet = Cone.from_rays(facet_rays, sigma.ambient_rank)
    for piece in reference_simplicial_pieces(facet):
      yield (r0,) + piece


def reference_pointed_extreme_rays(ineqs, eqs, d):
  """Extreme rays and lineality of {x : ineqs.x >= 0, eqs.x == 0}.

  Returns (rays, lineality_basis): the rays are the primitive extreme rays of
  the cone intersected with the orthogonal complement of its lineality space,
  sorted; the lineality basis is the Hermite basis of the saturated lineality
  lattice.  Exhaustive over active sets, so intended for desk-scale d.
  """
  ineqs = [list(r) for r in ineqs]
  lin = _kernel_rows(list(ineqs) + [list(e) for e in eqs], d)
  eqs2 = [list(e) for e in eqs] + [list(b) for b in lin]
  re = _rank_small(eqs2, d)
  size = d - 1 - re
  if size < 0 or size > len(ineqs):
    return [], lin
  found = set()
  for sub in itertools.combinations(range(len(ineqs)), size):
    stack = eqs2 + [ineqs[i] for i in sub]
    ker = _kernel_small(stack, d)
    if len(ker) != 1:
      continue
    v = ker[0]
    evals = [_dot(row, v) for row in ineqs]
    if all(e >= 0 for e in evals):
      found.add(tuple(v))
    elif all(e <= 0 for e in evals):
      found.add(_neg(v))
  return sorted(found), lin


def reference_from_inequalities(ineqs, eqs, d: int) -> Cone:
  """Cone {x : n.x >= 0 for n in ineqs, e.x == 0 for e in eqs}, converted
  from an emptied conversion cache by one double description and the
  conversion of its rays and lineality, as Cone.from_inequalities did
  before it looked systems up; ValueError if a row does not have length
  d."""
  ineqs, eqs = list(ineqs), list(eqs)
  for kind, rows in (("inequality", ineqs), ("equation", eqs)):
    for row in rows:
      if len(row) != d:
        raise ValueError("%s %s does not have length %d"
                         % (kind, tuple(row), d))
  _cone_from_gens.cache_clear()
  rays, lin, _, _ = _pointed_extreme_rays(ineqs, eqs, d)
  return Cone.from_rays(_generators(rays, lin), d)


def reference_faces(sigma: Cone) -> list:
  """All faces of the cone, including the minimal face and the cone itself.

  Sorted by (dimension, rays) so the output is deterministic.
  """
  out = {}
  n = len(sigma.facet_normals)
  lin_gens = []
  for b in sigma.lineality_basis:
    lin_gens.append(b)
    lin_gens.append(_neg(b))
  for r in range(n + 1):
    for js in itertools.combinations(range(n), r):
      sel = [sigma.facet_normals[j] for j in js]
      keep = [ray for ray in sigma.rays
              if all(_dot(nu, ray) == 0 for nu in sel)]
      f = Cone.from_rays(list(keep) + lin_gens, sigma.ambient_rank)
      out[(f.rays, f.lineality_basis)] = f
  return sorted(out.values(), key=lambda c: (c.dim, c.rays))


def _box_parallelepiped_points(lo, hi, sub, adj, det, mat, d, k):
  """Lattice points of a half-open parallelepiped spanned by k independent
  vectors in Z^d.

  The parallelepiped is {sum t_i r_i : 0 <= t_i < 1} where the r_i are the
  columns of mat (d x k, row-major flat list).  sub lists k row indices such
  that the corresponding k x k submatrix M_I is invertible; adj is its
  adjugate (row-major flat) and det its determinant, normalized positive.
  For each integer point x of the box [lo, hi] the candidate coefficients are
  a = adj * x_I with t = a / det; x belongs iff 0 <= a_i < det for all i and
  mat * a == det * x exactly.

  Returns the accepted points as tuples, in box iteration order.
  """
  assert det > 0
  out = []
  x = list(lo)
  if any(l > h for l, h in zip(lo, hi)):
    return out
  while True:
    a = [0] * k
    ok = True
    for i in range(k):
      s = 0
      for j in range(k):
        s += adj[i * k + j] * x[sub[j]]
      if s < 0 or s >= det:
        ok = False
        break
      a[i] = s
    if ok:
      for r in range(d):
        s = 0
        for j in range(k):
          s += mat[r * k + j] * a[j]
        if s != det * x[r]:
          ok = False
          break
      if ok:
        out.append(tuple(x))
    # odometer increment
    pos = d - 1
    while pos >= 0:
      if x[pos] < hi[pos]:
        x[pos] += 1
        break
      x[pos] = lo[pos]
      pos -= 1
    if pos < 0:
      return out


def reference_parallelepiped_points(rays, d):
  """Nonzero lattice points of the half-open box sum(t_i * r_i), t in [0,1)."""
  k = len(rays)
  mat = [[rays[j][i] for j in range(k)] for i in range(d)]  # columns are rays
  sub = []
  chosen = []
  for i in range(d):
    if _rank_small(chosen + [mat[i]], k) > len(sub):
      sub.append(i)
      chosen.append(mat[i])
    if len(sub) == k:
      break
  assert len(sub) == k
  sq = [mat[i] for i in sub]
  dd = reference_det(sq)
  adj = reference_adjugate(sq)
  if dd < 0:
    dd = -dd
    adj = [[-x for x in row] for row in adj]
  lo = [sum(min(0, mat[i][j]) for j in range(k)) for i in range(d)]
  hi = [sum(max(0, mat[i][j]) for j in range(k)) for i in range(d)]
  flat_adj = [x for row in adj for x in row]
  flat_mat = [x for row in mat for x in row]
  pts = _box_parallelepiped_points(lo, hi, sub, flat_adj, dd, flat_mat, d, k)
  return [p for p in pts if any(p)]


def reference_representable(x, elems, grade, gx, sigma):
  """Whether x is a nonnegative integer combination of the elements of
  strictly smaller grading."""
  usable = [e for e in elems if grade[e] < gx]
  memo = {}

  def rec(v):
    if not any(v):
      return True
    if v in memo:
      return memo[v]
    ok = False
    for e in usable:
      w = tuple(a - b for a, b in zip(v, e))
      if sigma.contains(w) and rec(w):
        ok = True
        break
    memo[v] = ok
    return ok

  return rec(x)


def reference_hilbert_basis(sigma: Cone) -> list:
  """Hilbert basis from box-walk candidates and the recursive reduction."""
  candidates = set(sigma.rays)
  for piece in reference_simplicial_pieces(sigma):
    candidates.update(reference_parallelepiped_points(piece, sigma.ambient_rank))
  grade = {x: sum(_dot(nu, x) for nu in sigma.facet_normals) for x in candidates}
  basis = []
  for x in sorted(candidates, key=lambda v: (grade[v], v)):
    if not reference_representable(x, basis, grade, grade[x], sigma):
      basis.append(x)
  return sorted(basis)


def reference_is_face_of(gamma: Cone, sigma: Cone) -> bool:
  """Whether gamma is a face of the strictly convex cone sigma."""
  if gamma.ambient_rank != sigma.ambient_rank:
    raise ValueError("ambient rank mismatch")
  if gamma.lineality_basis or sigma.lineality_basis:
    raise ValueError("face test implemented for strictly convex cones")
  if not all(sigma.contains(r) for r in gamma.rays):
    return False
  cut = [nu for nu in sigma.facet_normals
         if all(_dot(nu, r) == 0 for r in gamma.rays)]
  keep = [r for r in sigma.rays if all(_dot(nu, r) == 0 for nu in cut)]
  return Cone.from_rays(keep, sigma.ambient_rank) == gamma


def reference_faces_by_conversion(sigma: Cone) -> list:
  """All faces of the cone, one conversion per closed ray set.

  The ray sets of the faces are the full set closed under intersection with
  each facet's ray set; each set is converted on its own, as Cone.from_rays
  of its rays and both signs of the lineality would, but past the
  conversion cache.  Sorted by _order_key.
  """
  rays = sigma.rays
  lin_gens = list(_generators((), sigma.lineality_basis))
  facet_sets = set(sigma.facet_rays)
  full = (1 << len(rays)) - 1
  closed = {full}
  todo = [full]
  while todo:
    x = todo.pop()
    for v in facet_sets:
      y = x & v
      if y not in closed:
        closed.add(y)
        todo.append(y)
  out = [_convert(tuple(sorted(list(_pick(rays, y)) + lin_gens)),
                  sigma.ambient_rank) for y in closed]
  return sorted(out, key=_order_key)


def reference_face_by_projection(sigma: Cone, y: int) -> Cone:
  """The face of sigma on the rays in the closed int bitset y, built from
  sigma's stored data, field by field as the conversion would give it.

  The lineality is sigma's, and the span normals are the Hermite kernel of
  the rays and the lineality.  The facets of the face are its maximal
  proper cuts y & s by sigma's facet ray sets, re-indexed to the face's
  rays.  The facet normal of a cut is the primitive orthogonal projection
  onto the face's span of a normal n of sigma that makes the cut: with S
  the span normals and G = S S^T, that is det(G) n - S^T adj(G) S n, which
  agrees with n on the span.  The whole cone, y all ones, is sigma.
  """
  if y == (1 << len(sigma.rays)) - 1:
    return sigma
  d = sigma.ambient_rank
  lin = sigma.lineality_basis
  face_rays = _pick(sigma.rays, y)
  span = _kernel_rows(list(face_rays) + list(lin), d)
  cuts = {}
  for n, s in zip(sigma.facet_normals, sigma.facet_rays):
    x = y & s
    if x != y and x not in cuts:
      cuts[x] = n
  facets = []
  if cuts:
    kept = []
    for x in sorted(cuts, key=int.bit_count, reverse=True):
      if not any(x & z == x for z in kept):
        kept.append(x)
    adj, det = _adjugate([[_dot(a, b) for b in span] for a in span])
    cols = list(zip(*span))
    where = [j for j in range(len(sigma.rays)) if y >> j & 1]
    for x in kept:
      n = cuts[x]
      sn = [_dot(a, n) for a in span]
      w = [_dot(row, sn) for row in adj]
      normal = primitive([det * c - _dot(w, col) for c, col in zip(n, cols)])
      facets.append((normal, sum(1 << t for t, j in enumerate(where)
                                 if x >> j & 1)))
    facets.sort()
  return Cone(ambient_rank=d, rays=face_rays, lineality_basis=lin,
              facet_normals=tuple(nu for nu, _ in facets),
              facet_rays=tuple(bits for _, bits in facets),
              span_normals=tuple(span), _dim=d - len(span))
