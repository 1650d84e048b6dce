"""Strictly convex rational polyhedral cones, exactly.

A cone is stored canonically: primitive extreme rays (sorted), a Hermite
basis of its lineality space (empty when strictly convex), plus derived facet
normals and span normals that cut the cone out of its linear span.  All
computations are integer-exact; extreme rays come from exhaustive active-set
enumeration, which is why ambient ranks are capped at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import mul
from types import SimpleNamespace

from . import _kernels
from .lattice import IntMatrix, det, kernel_basis, primitive

MAX_DUAL_RANK = 4
MAX_AMBIENT_RANK = 6


def _dot(a, b):
  return sum(map(mul, a, b))


def _neg(v):
  return tuple(-x for x in v)


def _kernel_small(rows, d):
  """Primitive spanning vectors of the rational kernel of the given rows.

  Lean integer Gaussian elimination for the hot paths.  The vectors span the
  kernel over Q; use _kernel_canonical when the integer lattice matters.
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


def _kernel_canonical(rows, d):
  """Hermite basis of the saturated integer kernel lattice of the rows."""
  clean = [list(r) for r in rows]
  A = IntMatrix(len(clean), d, tuple(x for r in clean for x in r))
  return [tuple(v) for v in kernel_basis(A)]


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


def _pointed_extreme_rays(ineqs, eqs, d):
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


@dataclass(frozen=True)
class Cone:
  """A rational polyhedral cone in canonical form.

  Equality and hashing use ambient_rank, rays and lineality_basis only; the
  facet and span normals and the cached dimension are derived data.
  """

  ambient_rank: int
  rays: tuple[tuple[int, ...], ...]
  lineality_basis: tuple[tuple[int, ...], ...] = ()
  facet_normals: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
  span_normals: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)
  _dim: int = field(default=0, compare=False, repr=False)

  @staticmethod
  def from_rays(generators, ambient_rank: int) -> "Cone":
    """Cone generated by the given integer vectors.

    Redundant generators are discarded; the result carries canonical extreme
    rays, facet normals, and (if the generators span lines both ways) a
    lineality basis.
    """
    gens = set()
    for g in generators:
      g = tuple(int(x) for x in g)
      if len(g) != ambient_rank:
        raise ValueError("generator %s does not have length %d" % (g, ambient_rank))
      if any(g):
        gens.add(primitive(g))
    return _cone_from_gens(tuple(sorted(gens)), ambient_rank)

  @staticmethod
  def from_inequalities(ineqs, eqs, ambient_rank: int) -> "Cone":
    """Cone {x : n.x >= 0 for n in ineqs, e.x == 0 for e in eqs}."""
    rays, lin = _pointed_extreme_rays(ineqs, eqs, ambient_rank)
    gens = list(rays)
    for b in lin:
      gens.append(b)
      gens.append(_neg(b))
    return Cone.from_rays(gens, ambient_rank)

  @property
  def is_strictly_convex(self) -> bool:
    return not self.lineality_basis

  @property
  def dim(self) -> int:
    return self._dim

  @property
  def is_zero(self) -> bool:
    return not self.rays and not self.lineality_basis

  def contains(self, v) -> bool:
    if len(v) != self.ambient_rank:
      raise ValueError("vector length %d does not match ambient rank %d"
                       % (len(v), self.ambient_rank))
    for s in self.span_normals:
      if _dot(s, v):
        return False
    for n in self.facet_normals:
      if _dot(n, v) < 0:
        return False
    return True

  def contains_relative_interior(self, v) -> bool:
    """Whether v lies in the relative interior of the cone."""
    if len(v) != self.ambient_rank:
      raise ValueError("vector length mismatch")
    return (all(_dot(s, v) == 0 for s in self.span_normals)
            and all(_dot(n, v) > 0 for n in self.facet_normals))

  def interior_point(self) -> tuple[int, ...]:
    out = [0] * self.ambient_rank
    for r in self.rays:
      out = [a + b for a, b in zip(out, r)]
    return tuple(out)

  def contains_cone(self, other: "Cone") -> bool:
    for r in other.rays:
      if not self.contains(r):
        return False
    for b in other.lineality_basis:
      if not (self.contains(b) and self.contains(_neg(b))):
        return False
    return True


def _zero_cone(d: int) -> Cone:
  eye = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
  return Cone(ambient_rank=d, rays=(), lineality_basis=(),
              facet_normals=(), span_normals=eye, _dim=0)


@lru_cache(maxsize=65536)
def _cone_from_gens(gens: tuple, d: int) -> Cone:
  if not gens:
    return _zero_cone(d)
  gen_rows = [list(g) for g in gens]
  span_normals = _kernel_canonical(gen_rows, d)
  span_dim = d - len(span_normals)
  if _rank_small(gen_rows, d) == len(gens):
    # simplicial: every generator is extreme, facets drop one generator each
    normals = []
    for i in range(len(gens)):
      rest = [gen_rows[j] for j in range(len(gens)) if j != i]
      ker = _kernel_small(rest + [list(s) for s in span_normals], d)
      assert len(ker) == 1
      nu = ker[0]
      e = _dot(nu, gens[i])
      assert e != 0
      if e < 0:
        nu = [-x for x in nu]
      normals.append(tuple(nu))
    return Cone(ambient_rank=d, rays=gens, lineality_basis=(),
                facet_normals=tuple(sorted(normals)),
                span_normals=tuple(span_normals), _dim=len(gens))
  normals, dual_lin = _pointed_extreme_rays(gen_rows, [], d)
  assert dual_lin == span_normals
  rays, lin = _pointed_extreme_rays(normals, span_normals, d)
  dim = _rank_small([list(r) for r in rays] + [list(b) for b in lin], d)
  return Cone(ambient_rank=d, rays=tuple(rays), lineality_basis=tuple(lin),
              facet_normals=tuple(normals), span_normals=tuple(span_normals),
              _dim=dim)


def dual_cone(sigma: Cone) -> Cone:
  """The dual cone {m : <m, n> >= 0 for every n in sigma}.

  For a cone that is not full-dimensional the dual carries a lineality basis
  spanning the orthogonal complement of sigma's span.
  """
  if sigma.ambient_rank > MAX_DUAL_RANK:
    raise ValueError("dual computation capped at ambient rank %d" % MAX_DUAL_RANK)
  gens = list(sigma.facet_normals)
  for s in sigma.span_normals:
    gens.append(s)
    gens.append(_neg(s))
  return Cone.from_rays(gens, sigma.ambient_rank)


def _adjugate(rows):
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


def _simplicial_pieces(sigma: Cone):
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
    for piece in _simplicial_pieces(facet):
      yield (r0,) + piece


def _parallelepiped_points(rays, d, force=None):
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
  adj = _adjugate(sq)
  if dd < 0:
    dd = -dd
    adj = [[-x for x in row] for row in adj]
  lo = [sum(min(0, mat[i][j]) for j in range(k)) for i in range(d)]
  hi = [sum(max(0, mat[i][j]) for j in range(k)) for i in range(d)]
  flat_adj = [x for row in adj for x in row]
  flat_mat = [x for row in mat for x in row]
  pts = _kernels.parallelepiped_points(lo, hi, sub, flat_adj, dd, flat_mat, d, k,
                                       force=force)
  return [p for p in pts if any(p)]


def hilbert_basis(sigma: Cone, force_kernel=None) -> list:
  """Unique minimal generating set of the monoid of lattice points of sigma.

  Args:
    sigma: a strictly convex cone.
    force_kernel: optional "py"/"c" to pin the enumeration kernel (used by
      the benchmark; normal callers leave it None).

  Raises:
    ValueError: if the cone has lineality or the ambient rank is too large.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("Hilbert basis requires a strictly convex cone")
  if sigma.ambient_rank > MAX_AMBIENT_RANK:
    raise ValueError("Hilbert basis capped at ambient rank %d" % MAX_AMBIENT_RANK)
  if sigma.is_zero:
    return []
  candidates = set(sigma.rays)
  for piece in _simplicial_pieces(sigma):
    candidates.update(_parallelepiped_points(piece, sigma.ambient_rank,
                                             force=force_kernel))
  grade = {}
  for x in candidates:
    grade[x] = sum(_dot(nu, x) for nu in sigma.facet_normals)
    assert grade[x] > 0
  basis = []
  for x in sorted(candidates, key=lambda v: (grade[v], v)):
    if not _representable(x, basis, grade, grade[x], sigma):
      basis.append(x)
  return sorted(basis)


def _representable(x, elems, grade, gx, sigma):
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


def faces(sigma: Cone) -> list:
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


def is_face_of(gamma: Cone, sigma: Cone) -> bool:
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


def intersect(sigma: Cone, tau: Cone) -> Cone:
  """Intersection, computed from the union of both inequality systems."""
  if sigma.ambient_rank != tau.ambient_rank:
    raise ValueError("ambient rank mismatch")
  if sigma == tau:
    return sigma
  a, b = sorted((sigma, tau), key=lambda c: (c.rays, c.lineality_basis))
  return _intersect_cached(a, b)


@lru_cache(maxsize=65536)
def _intersect_cached(sigma: Cone, tau: Cone) -> Cone:
  ineqs = list(sigma.facet_normals) + list(tau.facet_normals)
  eqs = list(sigma.span_normals) + list(tau.span_normals)
  return Cone.from_inequalities(ineqs, eqs, sigma.ambient_rank)


def is_smooth(sigma: Cone) -> bool:
  """Whether the rays extend to a basis of the ambient lattice.

  For k rays in rank d, the gcd of the k x k minors of the ray matrix (its
  k-th determinantal divisor) is the product of its invariant factors, and
  0 when the rays are dependent.  So the rays extend to a basis exactly when
  that gcd is 1; the loop stops at the first partial gcd of 1.  More rays
  than the rank leave no minor, gcd 0.  The zero cone has one empty minor,
  of determinant 1, and is smooth.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("smoothness is defined here for strictly convex cones")
  rays = sigma.rays
  g = 0
  for cols in itertools.combinations(range(sigma.ambient_rank), len(rays)):
    g = gcd(g, det(IntMatrix.from_rows([[r[c] for c in cols] for r in rays])))
    if g == 1:
      return True
  return False


def queries(sigma: Cone) -> SimpleNamespace:
  """Bundle of the point-level queries on a cone."""
  return SimpleNamespace(contains=sigma.contains, dim=sigma.dim,
                         interior_point=sigma.interior_point())
