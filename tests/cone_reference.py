"""Test-only reference code for the cone enumerations of logfan.cone.

The library converts between rays and facets by double description, lists
faces by closing the facets' ray sets under intersection, and finds the
lattice points of a simplicial parallelepiped by enumerating the group of
the lattice modulo the rays.  This module keeps the earlier exhaustive code
as a differential oracle:

- conversion by one kernel solve per active set of d - 1 constraints;
- faces by one cone per subset of facet normals;
- parallelepiped points by a walk over every integer point of the bounding
  box;
- Hilbert bases reduced by a recursive search for a way to write each
  candidate as a sum of basis elements;
- adjugates by one cofactor (a minor's determinant) per entry;
- the triangulation by building one cone per facet and recursing on it;
- the face test by building the smallest face holding a cone as a cone.
"""

import itertools

from logfan.cone import (
    Cone,
    _dot,
    _kernel_canonical,
    _kernel_small,
    _neg,
    _rank_small,
)
from logfan.lattice import IntMatrix, det


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
      cof = det(IntMatrix.from_rows(minor))
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
  lin = _kernel_canonical(list(ineqs) + [list(e) for e in eqs], d)
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
  dd = det(IntMatrix.from_rows(sq))
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
