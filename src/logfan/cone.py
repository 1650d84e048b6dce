"""Strictly convex rational polyhedral cones, exactly.

A cone is stored canonically: primitive extreme rays (sorted), a Hermite
basis of its lineality space (empty when strictly convex), plus derived facet
normals and span normals that cut the cone out of its linear span, and the
ray-facet incidence facet_rays: for each facet, the int bitset of the rays
on it.  All computations are integer-exact, and each enumeration makes only
the objects of its answer: rays and facets convert into each other by one
double description, started from one adjugate; a pointed cone's rays are
read from the incidences of its generators with its facets, so only a cone
with lineality converts a second time.  Conversions go through one bounded
least-recently-used cache (_cone_from_gens), which faces fills too.  The
incidence is kept from that conversion, never recomputed: faces come from
closing facet_rays under intersection and are built from the parent's
rays, lineality and normals with no conversion (_face), the triangulation
recurses on it, and the face test and the fan layer read the smallest face
holding a point off it (_smallest_face).
Hilbert-basis candidates come from the group of the lattice modulo the rays
of each simplicial piece, and are reduced by comparing their facet values,
the numbers their grading is the sum of.  The lattice work is only what the
answer needs: a Hermite kernel (_kernel_rows, one Hermite pass, for span
normals or lineality) is taken only when the rank shows the kernel is not
{0}, and the conversion's start, each simplicial piece and each face's
projection onto its span get their adjugate and determinant from one
fraction-free elimination (_adjugate).  Smoothness is one Hermite pass
over the transposed rays (_extends_to_basis), not a loop over maximal
minors.  These, and the back-substitution of _span_coordinates
(_echelon_coords), are lattice.py's, on row lists.
Hilbert bases have one work budget, MAX_HILBERT_INDEX, and faces one,
MAX_FACES; neither they nor dual_cone have a rank cap.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from operator import le, mul

from .lattice import (_adjugate, _echelon_coords, _extends_to_basis,
                      _kernel_rows, primitive)

# hilbert_basis refuses a cone whose simplicial pieces have a total index
# (|det| per piece, in the span lattice) above this: the number of candidate
# points.  The most met in the tests, the gallery and the benchmark is 145.
# At the budget (Python 3.11, x86-64) the cone of e_1, ..., e_{d-1} and
# (1, ..., 1, 2000) takes 0.01 s in rank 2 and 0.16-0.26 s in ranks 6 and
# 8; the rank needs no cap, as the triangulation of the cone over C(16, 8)
# in rank 9 (330 pieces) takes 0.025 s.
MAX_HILBERT_INDEX = 2000

# faces refuses a cone with more faces than this, counted as closed ray
# sets before any face is built.  The most met in the tests (other than
# those of the budget itself), the gallery and the benchmark is 286.  At
# the budget (Python 3.11, x86-64) the rank-12 orthant's 4 096 faces take
# 1.5 s; the cone over C(16, 8) in rank 9 (13 826 faces, 12-13 s) is
# refused in 0.2 s.
MAX_FACES = 4096

# The conversion cache (_cone_from_gens) keeps this many cones, dropping
# the least recently used: a cone keyed by its sorted primitive generators
# and its rank.  Cone.from_rays and faces both read and fill it.
CONVERSION_CACHE_SIZE = 65536
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_conversions = OrderedDict()
_conversion_counts = [0, 0]  # hits, misses


def _dot(a, b):
  return sum(map(mul, a, b))


def _neg(v):
  return tuple(-x for x in v)


def _both_signs(vectors) -> list:
  """Each vector followed by its negation: as cone generators, the span of
  the vectors."""
  return [w for b in vectors for w in (b, _neg(b))]


def _order_key(c) -> tuple:
  """The canonical order of cones: by dimension, then rays; the lineality
  only separates cones with lineality that have the same rays."""
  return (c.dim, c.rays, c.lineality_basis)


def _pick(rays, bits) -> tuple:
  """The rays whose bits are set in the int bitset bits, in order."""
  return tuple(r for j, r in enumerate(rays) if bits >> j & 1)


def _independent(echelon, row) -> bool:
  """Add row to the echelon rows when it is independent of them, and return
  whether it was added.

  echelon is a list of (pivot column, row), each row zero at the pivot
  columns of the rows before it; reducing in that order leaves a new row
  zero at every pivot column, so it is independent iff something remains.
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


def _pointed_extreme_rays(ineqs, eqs, d):
  """Extreme rays and lineality of {x : ineqs.x >= 0, eqs.x == 0}.

  Returns (rays, lineality_basis, incidence): the rays are the primitive
  extreme rays of the cone intersected with the orthogonal complement of its
  lineality space, sorted; the lineality basis is the Hermite basis of the
  saturated lineality lattice; incidence[j] is the int bitset of the
  inequalities that vanish on rays[j].  The lineality is the kernel of all
  the rows, so it is {0} when the echelon of the equations and the
  inequalities reaches rank d, and only otherwise is it computed as a
  Hermite kernel (_kernel_rows).

  Double description (Motzkin et al. 1953; Fukuda & Prodon 1996).  Inside
  W = {x : eqs.x == 0, x orthogonal to the lineality}, of dimension m, the
  inequalities have rank m.  The first m independent ones cut out a
  simplicial cone, whose rays are m columns of one adjugate (_adjugate) of
  the square matrix of the independent equations, the lineality basis and
  these m rows.  Every other inequality a then keeps the rays with a.x >= 0
  and adds primitive((a.p) q - (a.q) p) for each adjacent pair with
  a.p > 0 > a.q.  Each ray carries its zero set over the rows processed so
  far as an int bitset; p and q are adjacent iff their common zero set Z has
  at least m - 2 rows and lies in the zero set of no third ray, since Z cuts
  out the smallest face holding both.
  """
  ineqs = list(ineqs)
  echelon = []
  kept = [e for e in eqs if _independent(echelon, e)]
  start = []
  for i, a in enumerate(ineqs):
    if len(echelon) == d:
      break
    if _independent(echelon, a):
      start.append(i)
  # The lineality is orthogonal to every row, so adding it to the echelon
  # first would select the same start rows: its span meets the rows' span
  # only in 0.
  lin = [] if len(echelon) == d else _kernel_rows(ineqs + list(eqs), d)
  m = len(start)
  if m == 0:
    return [], lin, []
  # kept, lin and the start rows are d independent rows, so M is square and
  # invertible, and column k + t of adj(M) = det(M) M^-1 is orthogonal to
  # every row of M but start row t, on which it is det(M).
  k = d - m
  adj, dd = _adjugate(kept + lin + [ineqs[i] for i in start])
  if dd == 0:
    raise RuntimeError("start rows %s are dependent"
                       % ([ineqs[i] for i in start],))
  sign = 1 if dd > 0 else -1
  rays = [primitive([sign * row[k + t] for row in adj]) for t in range(m)]
  all_start = sum(1 << i for i in start)
  zeros = [all_start & ~(1 << i) for i in start]
  done = set(start)
  for i, a in enumerate(ineqs):
    if i in done:
      continue
    bit = 1 << i
    vals = [_dot(a, r) for r in rays]
    neg = [j for j, s in enumerate(vals) if s < 0]
    if not neg:
      zeros = [z | bit if s == 0 else z for z, s in zip(zeros, vals)]
      continue
    pos = [j for j, s in enumerate(vals) if s > 0]
    new_rays = []
    new_zeros = []
    for p in pos:
      for q in neg:
        z = zeros[p] & zeros[q]
        if z.bit_count() < m - 2:
          continue
        if any(zeros[t] & z == z for t in range(len(rays)) if t != p and t != q):
          continue
        sp, sq = vals[p], vals[q]
        new_rays.append(primitive([sp * y - sq * x
                                   for x, y in zip(rays[p], rays[q])]))
        new_zeros.append(z | bit)
    for j, s in enumerate(vals):
      if s >= 0:
        new_rays.append(rays[j])
        new_zeros.append(zeros[j] | bit if s == 0 else zeros[j])
    rays, zeros = new_rays, new_zeros
  out = sorted(zip(rays, zeros))
  return [r for r, _ in out], lin, [z for _, z in out]


@dataclass(frozen=True)
class Cone:
  """A rational polyhedral cone in canonical form.

  Equality and hashing use ambient_rank, rays and lineality_basis only; the
  facet and span normals, the incidence facet_rays and the cached dimension
  are derived data, required because a cone without them would answer from
  empty normals.  facet_rays[k] is the int bitset of the rays on
  facet_normals[k] (bit j for rays[j]), kept from the conversion that found
  the facets (see _cone_from_gens).
  """

  ambient_rank: int
  rays: tuple[tuple[int, ...], ...]
  lineality_basis: tuple[tuple[int, ...], ...]
  facet_normals: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
  facet_rays: tuple[int, ...] = field(compare=False, repr=False)
  span_normals: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
  _dim: int = field(compare=False, repr=False)

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
    """Cone {x : n.x >= 0 for n in ineqs, e.x == 0 for e in eqs}.

    Raises:
      ValueError: if a row does not have length ambient_rank.
    """
    ineqs, eqs = list(ineqs), list(eqs)
    for kind, rows in (("inequality", ineqs), ("equation", eqs)):
      for row in rows:
        if len(row) != ambient_rank:
          raise ValueError("%s %s does not have length %d"
                           % (kind, tuple(row), ambient_rank))
    rays, lin, _ = _pointed_extreme_rays(ineqs, eqs, ambient_rank)
    return Cone.from_rays(list(rays) + _both_signs(lin), ambient_rank)

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


def _cached(key):
  """The cone that the conversion cache holds under key, or None.  A hit
  makes the cone the most recently used."""
  cone = _conversions.get(key)
  if cone is None:
    _conversion_counts[1] += 1
  else:
    _conversion_counts[0] += 1
    _conversions.move_to_end(key)
  return cone


def _store(key, cone: Cone) -> Cone:
  """Put cone in the conversion cache under key, dropping the least
  recently used cone past CONVERSION_CACHE_SIZE, and return it."""
  _conversions[key] = cone
  if len(_conversions) > CONVERSION_CACHE_SIZE:
    _conversions.popitem(last=False)
  return cone


def _cone_from_gens(gens: tuple, d: int) -> Cone:
  """The cone on sorted distinct primitive generators, through the
  conversion cache.

  The cache is one bounded least-recently-used dict, keyed (gens, d);
  faces fills it too, under the same key that Cone.from_rays of the face's
  rays and lineality would use, so that fans find the faces they share.
  _cone_from_gens.cache_info() gives its hits and misses, and
  _cone_from_gens.cache_clear() empties it.
  """
  key = (gens, d)
  cone = _cached(key)
  if cone is None:
    cone = _store(key, _convert(gens, d))
  return cone


def _cache_info() -> CacheInfo:
  hits, misses = _conversion_counts
  return CacheInfo(hits, misses, CONVERSION_CACHE_SIZE, len(_conversions))


def _cache_clear():
  _conversions.clear()
  _conversion_counts[:] = [0, 0]


_cone_from_gens.cache_info = _cache_info
_cone_from_gens.cache_clear = _cache_clear


def _convert(gens: tuple, d: int) -> Cone:
  """The cone on sorted distinct primitive generators, by conversion.

  One conversion gives the facet normals, the span normals (its lineality)
  and the facets each generator lies on.  Some generator lies on every
  facet iff the cone has lineality.  If g lies on every facet, -g meets
  every facet inequality and lies in the span, so -g is in the cone.  If
  l = sum c_i g_i != 0, c_i >= 0, is in the lineality, the sum of the
  normals is 0 on l and >= 0 on every g_i, so it is 0 on some g_i with
  c_i > 0, and that g_i lies on every facet.  In a pointed cone the facets
  through g cut out the smallest face holding g, so g is an extreme ray iff
  no other generator lies on all of them: no other generator's facet set
  contains g's.  Only a cone with lineality takes the second conversion,
  facets to rays.

  facet_rays comes from the same incidences, with no dot product: for a
  pointed cone the generator bitsets of the facets, re-indexed from the
  generators to the kept rays; for a cone with lineality the rays' facet
  bitsets of the second conversion, transposed.
  """
  normals, span_normals, inc = _pointed_extreme_rays(gens, [], d)
  full = (1 << len(gens)) - 1
  on_all = full
  for z in inc:
    on_all &= z
  if on_all:
    rays, lin, ray_inc = _pointed_extreme_rays(normals, span_normals, d)
    facet_rays = [sum(1 << j for j, z in enumerate(ray_inc) if z >> k & 1)
                  for k in range(len(normals))]
  else:
    lin = []
    kept = []
    for i in range(len(gens)):
      # the generators on every facet through gens[i]
      face = full
      for z in inc:
        if z >> i & 1:
          face &= z
      if face == 1 << i:
        kept.append(i)
    rays = [gens[i] for i in kept]
    facet_rays = inc
    if len(kept) < len(gens):
      facet_rays = [sum(1 << j for j, i in enumerate(kept) if z >> i & 1)
                    for z in inc]
  return Cone(ambient_rank=d, rays=tuple(rays), lineality_basis=tuple(lin),
              facet_normals=tuple(normals), facet_rays=tuple(facet_rays),
              span_normals=tuple(span_normals), _dim=d - len(span_normals))


def dual_cone(sigma: Cone) -> Cone:
  """The dual cone {m : <m, n> >= 0 for every n in sigma}.

  For a cone that is not full-dimensional the dual carries a lineality basis
  spanning the orthogonal complement of sigma's span.  One conversion, with
  no rank cap: 0.2-15 ms cold over cyclic cones of ranks 5-8 (14-112 facets).
  """
  return Cone.from_rays(list(sigma.facet_normals)
                        + _both_signs(sigma.span_normals), sigma.ambient_rank)


def _simplicial_pieces(sigma: Cone):
  """Triangulate a strictly convex cone by fanning out from its first extreme
  ray.  Yields tuples of independent rays covering sigma without overlap of
  interiors.

  The recursion runs on faces as int bitsets over sigma's rays.  The facets
  of a face F are its maximal proper intersections with sigma's facet ray
  sets, sigma.facet_rays (the sets that faces closes over): each is a face
  of F, and a facet G of F is F cut by a facet of sigma that holds G but
  not F.  A face of dimension k with k rays is simplicial; otherwise its
  first ray r0 is coned over the pieces of each facet of F that misses r0.
  No cone is built per face.  The maximality test is needed from rank 6
  on, where a smaller intersection can have as many rays as a facet of F
  has dimension, and would be taken for a simplicial piece.
  """
  rays = sigma.rays

  def pieces(face, dim):
    if face.bit_count() == dim:
      yield _pick(rays, face)
      return
    low = face & -face
    cuts = {face & s for s in sigma.facet_rays} - {face}
    for x in cuts:
      if x & low or any(x != y and x & y == x for y in cuts):
        continue
      for piece in pieces(x, dim - 1):
        yield (rays[low.bit_length() - 1],) + piece

  yield from pieces((1 << len(rays)) - 1, sigma.dim)


def _span_coordinates(sigma: Cone) -> dict:
  """Coordinates of each ray of sigma in a basis of its span lattice.

  The span lattice is the integer kernel of the span normals; its Hermite
  basis (_kernel_rows) is echelon, so every ray is solved for by one pass
  over the pivots (_echelon_coords).
  A full-dimensional cone keeps its rays as coordinates.
  """
  if not sigma.span_normals:
    return {r: r for r in sigma.rays}
  basis = _kernel_rows(sigma.span_normals, sigma.ambient_rank)
  out = {}
  for r in sigma.rays:
    coords = _echelon_coords(basis, r)
    if coords is None:
      raise RuntimeError("ray %s is outside the span lattice" % (r,))
    out[r] = tuple(coords)
  return out


def _subgroup(gens, n: int) -> list:
  """Elements of the subgroup of (Z/n)^k generated by gens, zero first.

  Coset closure: with H the group of the generators so far, adding g gives
  the disjoint union of H + j*g for 0 <= j < o, where o is the least j > 0
  with j*g in H.  Every element is made exactly once.
  """
  k = len(gens)
  elems = [(0,) * k]
  seen = {elems[0]}
  for g in gens:
    g = tuple(x % n for x in g)
    base = list(elems)
    step = g
    while step not in seen:
      for h in base:
        e = tuple((x + y) % n for x, y in zip(h, step))
        seen.add(e)
        elems.append(e)
      step = tuple((x + y) % n for x, y in zip(step, g))
  return elems


def _parallelepiped_points(rays, adj, dd) -> list:
  """Nonzero lattice points of the half-open box sum(t_i * r_i), t in [0,1).

  rays are k independent vectors; adj and dd are the adjugate and the
  determinant (from _adjugate) of the k x k matrix R whose rows are their
  coordinates in a basis of the lattice of their span.  A lattice point
  x = t R has t = x adj(R) / det(R), so with the sign of det(R) folded into
  adj the points are a R / D, D = |det R|, where a runs over the subgroup of
  (Z/D)^k generated by the rows of adj: exactly D points, the zero point
  among them, found without a bounding box.

  Raises:
    ValueError: if the rays are dependent (dd == 0).
  """
  if dd == 0:
    raise ValueError("parallelepiped rays %s are dependent" % (list(rays),))
  if dd < 0:
    dd = -dd
    adj = [[-x for x in row] for row in adj]
  cols = list(zip(*rays))
  return [tuple(_dot(c, a) // dd for c in cols)
          for a in _subgroup(adj, dd)[1:]]


def hilbert_basis(sigma: Cone) -> list:
  """Unique minimal generating set of the monoid of lattice points of sigma.

  The candidates are the rays and the lattice points of the parallelepipeds
  of a triangulation, enumerated per simplicial piece as the group of the
  span lattice modulo the piece's rays (Bruns & Koch 2001); the basis is
  the candidates that are not sums of two nonzero lattice points of sigma,
  decided in order of grading against the basis found so far.  The
  work is the total index of the pieces (|det| each, in the span lattice),
  which is checked against MAX_HILBERT_INDEX before anything is enumerated;
  each piece's determinant is taken once, with its adjugate, for both.

  The grading is the sum of a candidate's facet values, and x - e lies in
  sigma iff no facet value of e exceeds that of x (Bruns & Ichim 2010).  If
  x = a + b for nonzero lattice points a, b of sigma, the lighter summand
  has at most half x's grading and some basis element below it reduces x:
  so only the basis elements of at most half x's grading are tried, a
  prefix of the basis, which grows in grading order.

  Raises:
    ValueError: if the cone has lineality or the total index of the pieces
      is above MAX_HILBERT_INDEX.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("Hilbert basis requires a strictly convex cone")
  if sigma.is_zero:
    return []
  coords = _span_coordinates(sigma)
  pieces = [(piece,) + _adjugate([coords[r] for r in piece])
            for piece in _simplicial_pieces(sigma)]
  index = sum(abs(dd) for _, _, dd in pieces)
  if index > MAX_HILBERT_INDEX:
    raise ValueError("Hilbert basis capped at a total simplicial index of %d; "
                     "this cone needs %d" % (MAX_HILBERT_INDEX, index))
  candidates = set(sigma.rays)
  for piece, adj, dd in pieces:
    candidates.update(_parallelepiped_points(piece, adj, dd))
  vals = {x: [_dot(nu, x) for nu in sigma.facet_normals] for x in candidates}
  grade = {x: sum(v) for x, v in vals.items()}
  for x, g in grade.items():
    if g <= 0:
      raise RuntimeError("candidate %s has grading %d" % (x, g))
  basis = []
  for x in sorted(candidates, key=lambda v: (grade[v], v)):
    vx = vals[x]
    half = bisect_right(basis, grade[x] // 2, key=grade.__getitem__)
    if not any(all(map(le, vals[e], vx)) for e in basis[:half]):
      basis.append(x)
  return sorted(basis)


def faces(sigma: Cone) -> list:
  """All faces of the cone, including the minimal face and the cone itself.

  A face's rays are those of the whole cone cut by some set of facets, so
  the ray sets of the faces are the full set closed under intersection with
  each facet's ray set, sigma.facet_rays (Kaibel & Pfetsch 2002); the sets
  are int bitsets over the rays.  They are counted against MAX_FACES before
  any face is built.  Each proper face is then built from sigma's stored
  data (_face), with no conversion, and goes through the conversion cache
  under the key Cone.from_rays would give it, so that fans find the faces
  they share.  Sorted by _order_key so the output is deterministic.

  Raises:
    ValueError: if the cone has more than MAX_FACES faces.
  """
  rays = sigma.rays
  d = sigma.ambient_rank
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
        if len(closed) > MAX_FACES:
          raise ValueError("faces capped at %d faces; this cone has more"
                           % MAX_FACES)
        todo.append(y)
  lin_gens = tuple(_both_signs(sigma.lineality_basis))
  out = []
  for y in closed:
    face_rays = _pick(rays, y)
    key = (tuple(sorted(face_rays + lin_gens)) if lin_gens else face_rays, d)
    cone = _cached(key)
    if cone is None:
      cone = _store(key, sigma if y == full else _face(sigma, y, face_rays))
    out.append(cone)
  return sorted(out, key=_order_key)


def _face(sigma: Cone, y: int, face_rays: tuple) -> Cone:
  """The proper face of sigma on the rays in the int bitset y, built from
  sigma's stored data, field by field as the conversion would give it.

  The lineality is sigma's, and the span normals are the Hermite kernel of
  the rays and the lineality (_kernel_rows).  The facets of the face are
  its maximal proper cuts y & s by sigma's facet ray sets, as
  _simplicial_pieces reads them, re-indexed to the face's rays.  The facet
  normal of a cut is the primitive orthogonal projection onto the face's
  span of a normal n of sigma that makes the cut: with S the span normals
  and G = S S^T, that is det(G) n - S^T adj(G) S n, which agrees with n on
  the span, so it vanishes on the cut and is positive on the rest of the
  face; det(G) > 0 as the rows of S are independent.  The normals are
  sorted, as the conversion sorts them.
  """
  d = sigma.ambient_rank
  lin = sigma.lineality_basis
  span = _kernel_rows(list(face_rays) + list(lin), d)
  cuts = {}
  for n, s in zip(sigma.facet_normals, sigma.facet_rays):
    x = y & s
    if x != y and x not in cuts:
      cuts[x] = n
  facets = []
  if cuts:
    # a cut inside another lies inside a maximal one, so the maximal cuts
    # are found largest first against those kept
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


def is_face_of(gamma: Cone, sigma: Cone) -> bool:
  """Whether gamma is a face of the strictly convex cone sigma.

  The smallest face of sigma holding gamma is the smallest face holding
  gamma's interior point, the sum of its rays (_smallest_face).  gamma is
  that face iff its rays are exactly that face's: both cones are strictly
  convex and every kept ray is an extreme ray of sigma, so no cone needs
  to be built to compare them.
  """
  if gamma.ambient_rank != sigma.ambient_rank:
    raise ValueError("ambient rank mismatch")
  if gamma.lineality_basis or sigma.lineality_basis:
    raise ValueError("face test implemented for strictly convex cones")
  if not all(sigma.contains(r) for r in gamma.rays):
    return False
  return _smallest_face(sigma, gamma.interior_point()) == gamma.rays


def _smallest_face(sigma: Cone, x) -> tuple:
  """Rays of the smallest face of sigma that holds the point x of sigma.

  That face is cut out by the facets of sigma that vanish on x, so its rays
  are the rays of sigma on all of them: one dot product per facet decides
  which facets those are, and sigma.facet_rays gives their rays.  For x in
  the relative interior no facet vanishes and the face is sigma itself.
  """
  face = (1 << len(sigma.rays)) - 1
  for nu, on in zip(sigma.facet_normals, sigma.facet_rays):
    if not _dot(nu, x):
      face &= on
  return _pick(sigma.rays, face)


def intersect(sigma: Cone, tau: Cone) -> Cone:
  """Intersection, computed from the union of both inequality systems."""
  if sigma.ambient_rank != tau.ambient_rank:
    raise ValueError("ambient rank mismatch")
  if sigma == tau:
    return sigma
  ineqs = list(sigma.facet_normals) + list(tau.facet_normals)
  eqs = list(sigma.span_normals) + list(tau.span_normals)
  return Cone.from_inequalities(ineqs, eqs, sigma.ambient_rank)


def is_smooth(sigma: Cone) -> bool:
  """Whether the rays extend to a basis of the ambient lattice.

  Decided by one Hermite pass over the transposed ray matrix
  (_extends_to_basis): the rays extend exactly when each gets a pivot and
  every pivot is 1, the pivots' product being the gcd of the maximal
  minors.  Dependent rays, and more rays than the rank, leave a ray
  without a pivot.  The zero cone has no rays and is smooth.
  """
  if not sigma.is_strictly_convex:
    raise ValueError("smoothness is defined here for strictly convex cones")
  return _extends_to_basis(sigma.rays, sigma.ambient_rank)
