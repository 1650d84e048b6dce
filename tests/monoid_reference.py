"""Test-only reference code for the membership search of logfan.monoid.

The library searches the multiplicity of each non-unit generator on the
facet values of the remainder: each level takes its multiplicities from an
exact interval, the facets on which every later generator vanishes force
the multiplicity, and no cone is tested inside the search.  This module
keeps the earlier search as a differential oracle.  It steps each
multiplicity through 0, 1, 2, ..., rebuilds the remainder's image in the
unit quotient at every step, tests its grading and runs a full cone test
on it, and a branch dies only when the image leaves the cone.  It keys its
memo and counts its nodes as the library does, memo hits included, against
the same MAX_MEMBER_NODES, and refuses a vector that needs more with the
same ValueError.
"""

from logfan.cone import Cone, _dot, _neg
from logfan.lattice import (
    _echelon_coords,
    complement_projection,
    row_lattice_basis,
)
from logfan.monoid import MAX_MEMBER_NODES, AffineMonoid, _gp_basis


def reference_split(P: AffineMonoid):
  """(units, rest, pi, pgens, pc, grade_vec, C) as the earlier search used
  them: a Hermite basis of the units, the other generators, the projection
  killing the saturated span of the units, the images of rest, their cone,
  the sum of its facet normals, and the cone of P."""
  C = P.cone
  unit_gens = [g for g in P.gens if C.contains(_neg(g))]
  rest = tuple(g for g in P.gens if not C.contains(_neg(g)))
  basis = tuple(tuple(r) for r in
                row_lattice_basis([list(g) for g in unit_gens], P.ambient_rank))
  pi = complement_projection([list(b) for b in basis], P.ambient_rank)
  pgens = tuple(pi.apply(r) for r in rest)
  pc = Cone.from_rays(pgens, pi.rows)
  grade_vec = tuple(sum(nu[i] for nu in pc.facet_normals)
                    for i in range(pi.rows))
  return basis, rest, pi, pgens, pc, grade_vec, C


def reference_membership(P: AffineMonoid, v) -> bool:
  """Whether v is a sum of generators, by the earlier search."""
  v = tuple(int(x) for x in v)
  units, rest, pi, pgens, pc, grade_vec, C = reference_split(P)
  if not C.contains(v):
    return False
  if _echelon_coords(_gp_basis(P), v) is None:
    return False
  if not rest:
    return _echelon_coords(units, v) is not None
  if not pc.is_strictly_convex:
    raise RuntimeError("the cone of the non-unit generators modulo the units "
                       "has lineality")
  gr = {i: _dot(grade_vec, pg) for i, pg in enumerate(pgens)}
  if not all(g > 0 for g in gr.values()):
    raise RuntimeError("a non-unit generator has grading <= 0: %s" % (gr,))
  memo = {}
  visits = 0

  def search(i, w_left, v_left):
    nonlocal visits
    visits += 1
    if visits > MAX_MEMBER_NODES:
      raise ValueError("membership search capped at %d nodes; %s needs more"
                       % (MAX_MEMBER_NODES, v))
    key = (i, v_left)
    if key in memo:
      return memo[key]
    if i == len(rest):
      out = not any(w_left) and _echelon_coords(units, v_left) is not None
      memo[key] = out
      return out
    out = False
    c = 0
    while True:
      wl = tuple(a - c * b for a, b in zip(w_left, pgens[i]))
      if _dot(grade_vec, wl) < 0 or not pc.contains(wl):
        break
      vl = tuple(a - c * b for a, b in zip(v_left, rest[i]))
      if search(i + 1, wl, vl):
        out = True
        break
      c += 1
    memo[key] = out
    return out

  try:
    return search(0, pi.apply(v), v)
  finally:
    del search
