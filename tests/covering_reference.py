"""Test-only reference oracles for the covering questions of logfan.fan.

The library decides "do these cones tile that cone" by a wall test.  This
module keeps the earlier, independent mechanism as a differential oracle:
it slices every cone with a positive functional, after a lattice change of
coordinates into the container's span, and compares sums of rational
section volumes.  It also keeps the 500-point sampling check that once
guarded the completeness flag of support_query, and the holder search that
tested every mapped source cone against every maximal target cone, which
the library replaced by a search through a ray index, and the common-face
test of validate that intersected every pair of maximal cones, which the
library now decides by separation certificates first, and Fan.make's
maximality filter that ran contains_cone on every pair of cones, which the
library now screens by sign patterns and interior points first.  The holder
search maps the rays and both signs of the lineality of each source cone.
The seeded fans that the differential tests share are drawn here too.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from logfan.cone import Cone, _dot, intersect
from logfan.fan import Fan, _distinct, _tiles, star_subdivision
from logfan.gallery import run_gallery
from logfan.lattice import is_unimodular, saturate_row_lattice

from cone_reference import reference_is_face_of, reference_simplicial_pieces
from lattice_reference import express_in_rows


def _frac_det(rows) -> Fraction:
  k = len(rows)
  m = [list(r) for r in rows]
  out = Fraction(1)
  for col in range(k):
    piv = None
    for r in range(col, k):
      if m[r][col]:
        piv = r
        break
    if piv is None:
      return Fraction(0)
    if piv != col:
      m[col], m[piv] = m[piv], m[col]
      out = -out
    out *= m[col][col]
    for r in range(col + 1, k):
      f = Fraction(m[r][col], 1) / m[col][col]
      if f:
        m[r] = [a - f * b for a, b in zip(m[r], m[col])]
  return out


def _section_volume(sigma: Cone, ell) -> Fraction:
  """Total rational volume of the slice {x in sigma : <ell, x> = 1}.

  ell must be strictly positive on sigma minus the origin.  Additive across
  cones that tile a region, because all sections live in one hyperplane.
  """
  if sigma.dim == 0:
    return Fraction(0)
  total = Fraction(0)
  for piece in reference_simplicial_pieces(sigma):
    w = [tuple(Fraction(x, _dot(ell, r)) for x in r) for r in piece]
    total += abs(_frac_det(w))
  return total


def _covers(pieces, container: Cone) -> bool:
  """Whether cones known to sit inside the container jointly fill it."""
  k = container.dim
  if k == 0:
    return True
  basis = saturate_row_lattice([list(r) for r in container.rays],
                               container.ambient_rank)
  coords = {}
  for c in list(pieces) + [container]:
    rs = []
    for r in c.rays:
      e = express_in_rows(basis, r)
      if e is None:
        raise AssertionError("ray %s is outside the container's span lattice" % (r,))
      rs.append(tuple(e))
    coords[c] = rs
  big = Cone.from_rays(coords[container], k)
  ell = [sum(nu[i] for nu in big.facet_normals) for i in range(k)]
  want = _section_volume(big, ell)
  got = Fraction(0)
  for c in pieces:
    if c.dim == k:
      got += _section_volume(Cone.from_rays(coords[c], k), ell)
  if got > want:
    raise AssertionError("pieces cover a section volume %s above the "
                         "container's %s" % (got, want))
  return got == want


def reference_holders(matrix, source, target) -> list:
  """For each maximal source cone, the images of its rays and of both
  signs of each lineality generator, and the indices of all maximal target
  cones that contain them, each pair tested."""
  if matrix.cols != source.ambient_rank or matrix.rows != target.ambient_rank:
    raise ValueError("matrix shape %dx%d does not map rank %d to rank %d"
                     % (matrix.rows, matrix.cols, source.ambient_rank,
                        target.ambient_rank))
  out = []
  for c in source.max_cones:
    imgs = [matrix.apply(r) for r in c.generators]
    out.append((imgs, [i for i, t in enumerate(target.max_cones)
                       if all(t.contains(v) for v in imgs)]))
  return out


def reference_is_fan_map(matrix, source, target) -> bool:
  return all(held for _, held in reference_holders(matrix, source, target))


def reference_holder_predicates(matrix, source, target) -> SimpleNamespace:
  """subdivision_predicates as it was with all-pairs holders: the same
  wall test, each target cone's pieces read off the holder lists.

  Left as it was, it also tests on its own a target cone listed beside a
  cone it is a face of, which has no piece of its own dimension in a
  source of maximal cones: there it may answer (True, False) where the
  library answers as on Fan.make of the target.  Compare them on targets
  that list no such face."""
  holders = reference_holders(matrix, source, target)
  if not all(held for _, held in holders):
    raise ValueError("not a fan map")
  partial = is_unimodular(matrix)
  full = False
  if partial:
    d = target.ambient_rank
    mapped = [(Cone.from_rays(imgs, d), held) for imgs, held in holders]
    full = all(_tiles([m for m, held in mapped
                       if i in held and m.dim == t.dim], t)
               for i, t in enumerate(target.max_cones))
  return SimpleNamespace(is_partial_subdivision=partial, is_subdivision=full)


def reference_subdivision_predicates(matrix, source, target) -> SimpleNamespace:
  """subdivision_predicates by intersections and section volumes.

  Left as it was, it intersects every mapped cone with a target cone listed
  beside a cone it is a face of, and on such a target it may raise
  AssertionError, since the intersections of the pieces that share the face
  cover it more than once.  Compare it on targets that list no such face."""
  if not reference_is_fan_map(matrix, source, target):
    raise ValueError("not a fan map")
  partial = is_unimodular(matrix)
  full = False
  if partial:
    full = True
    mapped = [Cone.from_rays([matrix.apply(r) for r in c.generators],
                             target.ambient_rank)
              for c in source.max_cones]
    for t in target.max_cones:
      pieces = [intersect(m, t) for m in mapped]
      if not _covers([p for p in pieces if p.dim == t.dim], t):
        full = False
        break
  return SimpleNamespace(is_partial_subdivision=partial, is_subdivision=full)


def reference_validate(fan) -> SimpleNamespace:
  """validate as it was: every pair of strictly convex maximal cones is
  intersected and the intersection tested to be a face of both."""
  problems = []
  for c in fan.max_cones:
    if not c.is_strictly_convex:
      problems.append(("not strictly convex", c.rays, c.lineality_basis))
  mc = [c for c in fan.max_cones if c.is_strictly_convex]
  for i in range(len(mc)):
    for j in range(i + 1, len(mc)):
      w = intersect(mc[i], mc[j])
      if not (reference_is_face_of(w, mc[i])
              and reference_is_face_of(w, mc[j])):
        problems.append(("intersection not a common face",
                         mc[i].rays, mc[j].rays))
  return SimpleNamespace(ok=not problems, violations=problems)


def reference_make(cones, ambient_rank: int) -> Fan:
  """Fan.make as it was: a cone is dropped when contains_cone finds it in
  another cone of at least its dimension, every pair tested."""
  pool = _distinct(cones, ambient_rank)
  return Fan(ambient_rank, tuple(
      c for c in pool if not any(o is not c and o.dim >= c.dim
                                 and o.contains_cone(c) for o in pool)))


def sampled_completeness(fan) -> bool:
  """Whether 500 seeded points of the box [-40, 40]^d all lie in the support."""
  d = fan.ambient_rank
  rng = random.Random(0)
  for _ in range(500):
    p = tuple(rng.randint(-40, 40) for _ in range(d))
    if not any(c.contains(p) for c in fan.max_cones):
      return False
  return True


def projective_fan(n):
  e = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
  minus_all = tuple(-1 for _ in range(n))
  gens = e + [minus_all]
  return Fan.make([Cone.from_rays(gens[:i] + gens[i + 1:], n)
                   for i in range(n + 1)], n)


def random_stars(rng, n, moves):
  """The projective fan of rank n after random star subdivisions at cones
  of dimension at least two, with the fan before each move."""
  chain = [projective_fan(n)]
  for _ in range(moves):
    cur = chain[-1]
    centers = sorted((c for c in cur.all_cones if c.dim >= 2),
                     key=lambda c: (c.dim, c.rays))
    chain.append(star_subdivision(cur, centers[rng.randrange(len(centers))]))
  return chain


def gallery_fans():
  """Every distinct fan among the fixtures of the gallery cases."""
  seen = []

  def walk(x):
    if isinstance(x, Fan):
      if x not in seen:
        seen.append(x)
    elif isinstance(x, dict):
      for y in x.values():
        walk(y)
    elif isinstance(x, (list, tuple)):
      for y in x:
        walk(y)

  for case in run_gallery():
    walk(case.fixtures)
  return seen
