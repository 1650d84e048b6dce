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
least-recently-used cache (_cone_from_gens), and they are the only source
of facet normals.  The incidence is kept from that conversion, never
recomputed, and every face question is answered on it here: one budgeted
pass per cone on int bitsets of its rays gives each face its dimension
(_face_dims), and each face is built with its rays, lineality and
dimension only, its facet data left to the conversion that its first read
makes (_face_map, Cone._fill); one facet rule for the triangulation, the
maximal proper cuts (_facets_of); one face test, a closed ray set of the
same lineality (_is_face); and the smallest face holding a point
(_smallest_face).  No other module knows how a cone is stored: its
generators, the rays then both signs of each lineality vector, come from
_generators (Cone.generators), a facet's rays from _facets, and the
common-face certificate (_certified) is decided here, beside the face test.
The Hilbert basis of a 2-dimensional cone is its Hirzebruch-Jung chain,
made one element per step from one extended gcd (_chain).  Those of other
cones are enumerated: the candidates come from the group of the lattice
modulo the rays of each simplicial piece, and are reduced by comparing
their facet values, the numbers their grading is the sum of.  Either way
the basis is computed once per cone and kept on it.  The lattice work is
only what the answer needs: a Hermite kernel (_kernel_rows, one Hermite
pass, for span normals or lineality) is taken only when the rank shows the
kernel is not {0}, so a face that faces builds takes one only in the
conversion of its first read; the conversion's start gets its adjugate
from one fraction-free elimination (_adjugate), and each simplicial piece its
determinant from the forward half of it (_det_rows), the adjugate being
taken only for the pieces of index above 1, the only ones with box
points.  Smoothness is one Hermite pass over the transposed rays
(_extends_to_basis), not a loop over maximal minors.  These, and the
back-substitution of _span_coordinates (_echelon_coords), are lattice.py's,
on row lists.
Hilbert bases have one work budget, MAX_HILBERT_INDEX, which caps a
chain's elements at one more than it and an enumeration's total simplicial
index at it; faces have one, MAX_FACES; neither they nor dual_cone have a
rank cap.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from operator import le, mul

from .lattice import (_adjugate, _det_rows, _echelon_coords,
                      _extends_to_basis, _kernel_rows, _xgcd, primitive)

# hilbert_basis refuses a 2-dimensional cone whose chain would have more
# than this plus one elements, and any other cone whose simplicial pieces
# have a total index (|det| per piece, in the span lattice) above this: the
# number of candidate points.  The most met in the tests, the gallery and
# the benchmark, other than the cones drawn near or past the budget on
# purpose, is a chain of 18 elements and a total index of 101.  At the
# budget (Python 3.11, x86-64) the cone of e_1, ..., e_{d-1} and
# (1, ..., 1, 2000) takes 0.002 s in rank 2, a chain of 2 001 elements, and
# 0.16-0.19 s in ranks 6 and 8; the rank needs no cap, as the triangulation
# of the cone over C(16, 8) in rank 9 (330 pieces) takes 0.025 s.
MAX_HILBERT_INDEX = 2000

# faces refuses a cone with more faces than this, counted as closed ray
# sets as they are found, before any face is built.  The most met in the
# tests (other than those of the budget itself), the gallery and the
# benchmark is 286.  At the budget (Python 3.11, x86-64) the rank-12
# orthant's 4 096 faces take about 0.025 s; the cone over C(16, 8) in rank 9
# (13 826 faces, which once took 12-13 s) is refused in 0.008 s.
MAX_FACES = 4096

# The conversion cache (_cone_from_gens) keeps this many cones, dropping
# the least recently used: a cone keyed by its sorted primitive generators
# and its rank.  Cone.from_rays and the first read of a built face's facet
# data (Cone._fill) both read and fill it.
CONVERSION_CACHE_SIZE = 65536
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_conversions = OrderedDict()
_conversion_counts = [0, 0]  # hits, misses


def _dot(a, b):
  return sum(map(mul, a, b))


def _neg(v):
  return tuple(-x for x in v)


def _generators(rays, lineality):
  """The rays followed by each lineality vector and its negation, which
  generate the cone on the rays plus the span of the lineality; with no
  lineality, rays itself, so a strictly convex cone costs nothing."""
  if not lineality:
    return rays
  return tuple(rays) + tuple(w for b in lineality for w in (b, _neg(b)))


def _order_key(c) -> tuple:
  """The canonical order of cones: by dimension, then rays; the lineality
  only separates cones with lineality that have the same rays."""
  return (c.dim, c.rays, c.lineality_basis)


def _pick(rays, bits) -> tuple:
  """The rays whose bits are set in the int bitset bits, in order."""
  out = []
  while bits:
    low = bits & -bits
    out.append(rays[low.bit_length() - 1])
    bits ^= low
  return tuple(out)


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


@dataclass(frozen=True, init=False)
class Cone:
  """A rational polyhedral cone in canonical form.

  Equality and hashing use ambient_rank, rays and lineality_basis only; the
  facet and span normals, the incidence facet_rays and the dimension are
  derived data, required because a cone without them would answer from
  empty normals.  facet_rays[k] is the int bitset of the rays on
  facet_normals[k] (bit j for rays[j]), kept from the conversion that found
  the facets (see _cone_from_gens).

  The rays, the lineality and the dimension are stored at construction.  A
  conversion stores the facet normals, facet_rays and span normals too, as
  it finds them at no cost.  A face that the face enumeration builds
  (_face_map) gets None for all three: it needs none of them, and most
  faces it builds never have them read.  The first read of any of them
  fills all three from the conversion of the face's generators
  (_cone_from_gens), which must give the stored rays and dimension, and
  keeps them on the cone; so every facet normal comes from the one
  conversion.

  generators gives vectors that generate the whole cone, lineality
  included; every reader that maps, multiplies or tests the cone uses them.

  _hilbert holds the Hilbert basis once hilbert_basis has computed it, and
  is None until then; like the facet data it is derived, so it is not
  compared, hashed or shown, and no caller passes it.
  """

  ambient_rank: int
  rays: tuple[tuple[int, ...], ...]
  lineality_basis: tuple[tuple[int, ...], ...]
  _facet_normals: tuple[tuple[int, ...], ...] | None = field(compare=False,
                                                              repr=False)
  _facet_rays: tuple[int, ...] | None = field(compare=False, repr=False)
  _span_normals: tuple[tuple[int, ...], ...] | None = field(compare=False,
                                                             repr=False)
  _dim: int = field(compare=False, repr=False)
  _hilbert: tuple[tuple[int, ...], ...] | None = field(compare=False,
                                                        repr=False)

  def __init__(self, ambient_rank, rays, lineality_basis, facet_normals,
               facet_rays, span_normals, _dim):
    # written out, as the frozen dataclass would, to keep the keywords of
    # the stored fields
    init = object.__setattr__
    init(self, "ambient_rank", ambient_rank)
    init(self, "rays", rays)
    init(self, "lineality_basis", lineality_basis)
    init(self, "_facet_normals", facet_normals)
    init(self, "_facet_rays", facet_rays)
    init(self, "_span_normals", span_normals)
    init(self, "_dim", _dim)
    init(self, "_hilbert", None)

  def _fill(self):
    """Store the facet normals, facet_rays and span normals of the
    conversion of the generators; RuntimeError, with nothing stored, if it
    gives other rays or another dimension than those stored."""
    c = _cone_from_gens(tuple(sorted(self.generators)), self.ambient_rank)
    if c.rays != self.rays or c._dim != self._dim:
      raise RuntimeError("a cone of dimension %d on %s converts to one of "
                         "dimension %d on %s"
                         % (self._dim, self.rays, c._dim, c.rays))
    for name in ("_facet_normals", "_facet_rays", "_span_normals"):
      object.__setattr__(self, name, getattr(c, name))

  @property
  def facet_normals(self) -> tuple[tuple[int, ...], ...]:
    """The primitive inner normals of the facets, sorted (see _fill)."""
    if self._facet_normals is None:
      self._fill()
    return self._facet_normals

  @property
  def facet_rays(self) -> tuple[int, ...]:
    """For each facet, the int bitset of the rays on it (see _fill)."""
    if self._facet_rays is None:
      self._fill()
    return self._facet_rays

  @property
  def span_normals(self) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer vectors orthogonal to the cone's span (see
    _fill)."""
    if self._span_normals is None:
      self._fill()
    return self._span_normals

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
    return Cone.from_rays(_generators(rays, lin), ambient_rank)

  @property
  def generators(self) -> tuple:
    """The rays, then each lineality vector and its negation (_generators)."""
    return _generators(self.rays, self.lineality_basis)

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
    # the stored normals, once filled, without the property calls: the fan
    # layer tests containment about a thousand times per rank-2 resolution
    if self._facet_normals is None:
      self._fill()
    for s in self._span_normals:
      if _dot(s, v):
        return False
    for n in self._facet_normals:
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
    return tuple(map(sum, zip(*self.rays))) or (0,) * self.ambient_rank

  def contains_cone(self, other: "Cone") -> bool:
    return all(map(self.contains, other.generators))


def _cone_from_gens(gens: tuple, d: int) -> Cone:
  """The cone on sorted distinct primitive generators, through the
  conversion cache.

  The cache is one bounded least-recently-used dict, keyed (gens, d): a hit
  makes the cone the most recently used, and a miss converts (_convert)
  and drops the least recently used cone past CONVERSION_CACHE_SIZE.  It
  holds conversions only; a built face's first read looks up its own
  (Cone._fill) under the key Cone.from_rays would use.
  _cone_from_gens.cache_info() gives its hits and misses, and
  _cone_from_gens.cache_clear() empties it.
  """
  key = (gens, d)
  cone = _conversions.get(key)
  if cone is not None:
    _conversion_counts[0] += 1
    _conversions.move_to_end(key)
    return cone
  _conversion_counts[1] += 1
  cone = _conversions[key] = _convert(gens, d)
  if len(_conversions) > CONVERSION_CACHE_SIZE:
    _conversions.popitem(last=False)
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
  return Cone.from_rays(_generators(sigma.facet_normals, sigma.span_normals),
                        sigma.ambient_rank)


def _simplicial_pieces(sigma: Cone):
  """Triangulate a strictly convex cone by fanning out from its first extreme
  ray.  Yields tuples of independent rays covering sigma without overlap of
  interiors.

  The recursion runs on faces as int bitsets over sigma's rays, and a
  face's facets are read off sigma.facet_rays (_facets_of).  A face of
  dimension k with k rays is simplicial; otherwise its first ray r0 is
  coned over the pieces of each facet that misses r0.  No cone is built
  per face.
  """
  rays, sets = sigma.rays, sigma.facet_rays

  def pieces(face, dim):
    if face.bit_count() == dim:
      yield _pick(rays, face)
      return
    low = face & -face
    for x in _facets_of(face, sets):
      if not x & low:
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


def _chain(sigma: Cone) -> list:
  """The Hilbert basis of a strictly convex 2-dimensional cone, in any
  ambient rank, in angular order from rays[0] to rays[1]: its
  Hirzebruch-Jung chain (Oda 1988, 1.6; Fulton 1993, 2.6), made with work
  equal to its length.

  With a, b the rays, det taken on their coordinates in the span lattice
  (_span_coordinates), n = |det(a, b)| and s its sign, one _xgcd on a
  gives u* with det(a, u*) = 1.  The lattice points v with det(a, v) = s
  are s u* + t a, t an integer, and det(v, b) / s = det(u*, b) + t n runs
  over a residue class mod n.  The element after a is the one where it is
  least and not negative, r_1 = det(u*, b) mod n: u_1 = (r_1 a + b) / n,
  taken in ambient coordinates (b itself when n = 1).  With
  r_i = det(u_i, b) / s, strictly falling, u_{i+1} = k u_i - u_{i-1} and
  r_{i+1} = k r_i - r_{i-1} for k = ceil(r_{i-1} / r_i), from u_0 = a and
  r_0 = n, until r = 0 at u = b.  The sign s is carried by u_1 alone, so
  no step reads it.

  Raises:
    ValueError: if the chain would pass MAX_HILBERT_INDEX + 1 elements.
    RuntimeError: if u_1 is not a lattice point or the chain misses b.
  """
  a, b = sigma.rays
  coords = _span_coordinates(sigma)
  (a0, a1), (b0, b1) = coords[a], coords[b]
  n = abs(a0 * b1 - a1 * b0)
  _, x, y = _xgcd(a0, a1)
  # u* = (-y, x), so det(u*, b) = -y b1 - x b0
  r = (-y * b1 - x * b0) % n
  u = []
  for p, q in zip(a, b):
    c, rem = divmod(r * p + q, n)
    if rem:
      raise RuntimeError("(%d a + b) / %d is not a lattice point for the "
                         "cone on %s" % (r, n, sigma.rays))
    u.append(c)
  u = tuple(u)
  chain = [a]
  u0, r0 = a, n
  while r:
    chain.append(u)
    if len(chain) > MAX_HILBERT_INDEX:
      raise ValueError("Hilbert basis capped at %d elements; this cone has "
                       "more" % (MAX_HILBERT_INDEX + 1))
    k = -(-r0 // r)
    u0, u = u, tuple(k * p - q for p, q in zip(u, u0))
    r0, r = r, k * r - r0
  if u != b:
    raise RuntimeError("the chain of the cone on %s ends at %s"
                       % (sigma.rays, u))
  chain.append(b)
  return chain


def hilbert_basis(sigma: Cone) -> list:
  """Unique minimal generating set of the monoid of lattice points of sigma,
  sorted, as a new list on every call.

  A 2-dimensional cone, in any ambient rank, gets its Hirzebruch-Jung
  chain (_chain), with work equal to its length, which is refused past
  MAX_HILBERT_INDEX + 1 elements.  Any other cone is enumerated
  (_enumerated_basis).  The answer is kept on the cone (Cone._hilbert), so
  a cone from the conversion cache answers again at no cost; a refusal
  keeps nothing.

  Raises:
    ValueError: if the cone has lineality, a 2-dimensional cone's chain has
      more than MAX_HILBERT_INDEX + 1 elements, or another cone's total
      simplicial index is above MAX_HILBERT_INDEX.
  """
  basis = sigma._hilbert
  if basis is None:
    if not sigma.is_strictly_convex:
      raise ValueError("Hilbert basis requires a strictly convex cone")
    basis = tuple(sorted(_chain(sigma)) if sigma.dim == 2
                  else _enumerated_basis(sigma))
    object.__setattr__(sigma, "_hilbert", basis)
  return list(basis)


def _enumerated_basis(sigma: Cone) -> list:
  """The Hilbert basis of a strictly convex cone, by enumeration.

  The candidates are the rays and the lattice points of the parallelepipeds
  of a triangulation, enumerated per simplicial piece as the group of the
  span lattice modulo the piece's rays (Bruns & Koch 2001); the basis is
  the candidates that are not sums of two nonzero lattice points of sigma,
  decided in order of grading against the basis found so far.  The
  work is the total index of the pieces (|det| each, in the span lattice),
  which is checked against MAX_HILBERT_INDEX before anything is enumerated.
  Each piece's determinant comes from the forward elimination alone
  (_det_rows); only a piece of index above 1 has box points, so only it
  takes an adjugate.  When no piece has any, the basis is the rays.

  The grading is the sum of a candidate's facet values, and x - e lies in
  sigma iff no facet value of e exceeds that of x (Bruns & Ichim 2010).  If
  x = a + b for nonzero lattice points a, b of sigma, the lighter summand
  has at most half x's grading and some basis element below it reduces x:
  so only the basis elements of at most half x's grading are tried, a
  prefix of the basis, which grows in grading order.

  Raises:
    ValueError: if the total index of the pieces is above
      MAX_HILBERT_INDEX.
  """
  if sigma.is_zero:
    return []
  coords = _span_coordinates(sigma)
  pieces = []
  for piece in _simplicial_pieces(sigma):
    rows = [coords[r] for r in piece]
    pieces.append((piece, rows, _det_rows(rows)))
  index = sum(abs(dd) for _, _, dd in pieces)
  if index > MAX_HILBERT_INDEX:
    raise ValueError("Hilbert basis capped at a total simplicial index of %d; "
                     "this cone needs %d" % (MAX_HILBERT_INDEX, index))
  if index == len(pieces):
    return sorted(sigma.rays)
  candidates = set(sigma.rays)
  for piece, rows, dd in pieces:
    if abs(dd) > 1:
      candidates.update(_parallelepiped_points(piece, *_adjugate(rows)))
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
  """All faces of the cone, the minimal face and the cone itself included,
  sorted by _order_key, from one budgeted pass (_face_map); ValueError
  past MAX_FACES faces."""
  return sorted(_face_map([sigma]).values(), key=_order_key)


def _face_map(cones) -> dict:
  """Every face of the cones, once each, keyed by (rays, lineality_basis):
  the one face enumeration, behind faces and Fan.all_cones.

  Each cone's faces come with their dimensions from one budgeted pass on
  int bitsets of its rays (_face_dims).  Their ray tuples are united over
  the cones as keys and refused past MAX_FACES before any face is built.
  A face that no earlier cone holds is then built with its rays, the
  cone's lineality and its dimension, and no facet data or span normals,
  which its first read fills (Cone._fill); the cone itself is its own top
  face.  So the pass makes no conversion, takes no kernel and computes no
  normal.
  """
  out = {}
  passes = []
  for sigma in cones:
    lin = sigma.lineality_basis
    found = [(y, _pick(sigma.rays, y), k)
             for y, k in _face_dims(sigma).items()]
    for _, rays, _ in found:
      out[rays, lin] = None
    if len(out) > MAX_FACES:
      raise ValueError("faces capped at %d faces; this fan has more"
                       % MAX_FACES)
    passes.append((sigma, found))
  for sigma, found in passes:
    full = (1 << len(sigma.rays)) - 1
    lin = sigma.lineality_basis
    for y, rays, k in found:
      if out[rays, lin] is None:
        out[rays, lin] = (sigma if y == full else
                          Cone(sigma.ambient_rank, rays, lin, None, None, None,
                               k))
  return out


def _face_dims(sigma: Cone) -> dict:
  """Each face of sigma as the int bitset of its rays, mapped to its
  dimension; ValueError past MAX_FACES faces, as soon as the count passes
  it.

  Each face x, taken by falling ray count, is cut by every facet G of
  sigma (its facet_rays), and a new cut x & G != x gets dim x - 1, or
  keeps a smaller value found before.  That least value is the dimension:
  a cut is a proper face of x, so of dimension at most dim x - 1; every
  proper face y is a facet of some face x, and is x & G for a facet G of
  sigma that holds y but not x (_facets_of); and a cut has fewer rays
  than the face it cuts, so every face above y is cut before y is read.
  The faces are the closed ray sets (Kaibel & Pfetsch 2002).
  """
  sets = set(sigma.facet_rays)
  n = len(sigma.rays)
  full = (1 << n) - 1
  dims = {full: sigma.dim}
  by_count = [[] for _ in range(n)] + [[full]]
  for level in reversed(by_count):
    for x in level:
      k = dims[x] - 1
      for s in sets:
        y = x & s
        if y == x:
          continue
        old = dims.get(y)
        if old is None:
          dims[y] = k
          if len(dims) > MAX_FACES:
            raise ValueError("faces capped at %d faces; this cone has more"
                             % MAX_FACES)
          by_count[y.bit_count()].append(y)
        elif k < old:
          dims[y] = k
  return dims


def _facets_of(face: int, sets) -> dict:
  """The facets of the face F (an int bitset of a cone P's rays), largest
  first, as a dict from each facet's ray set x to an index j with
  x = F & sets[j], sets being P's facet_rays: the facet rule of the
  triangulation (_simplicial_pieces).

  They are F's maximal proper cuts F & G by facets G of P.  Each cut is a
  face of P inside F, so of F.  A facet H of F is a face of P, the meet of
  the facets of P that hold it, one of which, G, misses F; so H lies in
  the proper cut F & G, which is H.  For F a facet of P, H is a ridge and
  G the other facet through it (the diamond property; Ziegler, Lectures on
  Polytopes, 1995, ch. 2).  A cut inside another has fewer rays, so the
  maximal ones are found largest first against those kept; from rank 6 on
  a cut inside a facet can have as many rays as the facet's dimension.
  """
  cuts = {}
  for j, s in enumerate(sets):
    x = face & s
    if x != face and x not in cuts:
      cuts[x] = j
  kept = {}
  for x in sorted(cuts, key=int.bit_count, reverse=True):
    if not any(x & z == x for z in kept):
      kept[x] = cuts[x]
  return kept


def is_face_of(gamma: Cone, sigma: Cone) -> bool:
  """Whether gamma is a face of the strictly convex cone sigma (_is_face);
  ValueError if the ranks differ or either cone has lineality."""
  if gamma.ambient_rank != sigma.ambient_rank:
    raise ValueError("ambient rank mismatch")
  if gamma.lineality_basis or sigma.lineality_basis:
    raise ValueError("face test implemented for strictly convex cones")
  return _is_face(gamma, sigma)


def _is_face(gamma: Cone, sigma: Cone) -> bool:
  """Whether gamma is a face of sigma, either with lineality, with no dot
  product.  A face has sigma's lineality and some of sigma's rays, and a
  set y of sigma's rays spans a face iff it is closed: y is the rays of
  the smallest face holding it, those on every facet that holds y, the
  AND of the facet_rays that contain y (Kaibel & Pfetsch 2002)."""
  if (gamma.ambient_rank != sigma.ambient_rank
      or gamma.lineality_basis != sigma.lineality_basis):
    return False
  where = {r: j for j, r in enumerate(sigma.rays)}
  y = 0
  for r in gamma.rays:
    j = where.get(r)
    if j is None:
      return False
    y |= 1 << j
  face = (1 << len(sigma.rays)) - 1
  for on in sigma.facet_rays:
    if on & y == y:
      face &= on
  return face == y


def _cut(n, rays, bits):
  """The int bitset of the rays among bits on the kernel of n, or None when
  n is positive on one of them."""
  on = 0
  for j, r in enumerate(rays):
    if bits >> j & 1:
      v = _dot(n, r)
      if v > 0:
        return None
      if not v:
        on |= 1 << j
  return on


def _same_rays(a: int, b: int, to_s: list) -> bool:
  """Whether the rays of s in the int bitset a are those of t in b, where
  to_s[j] is the bit of t's ray j among s's rays (0 if s lacks it): the
  map is one to one, so the sets are equal iff they have the same size
  and a holds the image of every ray of b."""
  if a.bit_count() != b.bit_count():
    return False
  for j, bit in enumerate(to_s):
    if b >> j & 1 and not a & bit:
      return False
  return True


def _certified(s: Cone, t: Cone) -> bool:
  """Whether a separation certificate shows that the strictly convex cones
  s and t meet in a common face.

  A and B start as all rays of s and of t, as int bitsets.  A form n with
  n >= 0 on A and n <= 0 on B vanishes on cone(A) & cone(B), so that
  meeting is unchanged when A and B shrink to their rays on n's kernel;
  and since n >= 0 on cone(A), the cone on the rays of A in the kernel is
  a face of cone(A), hence of s (the same holds for B and t).  So at every
  step s & t = cone(A) & cone(B) with cone(A) a face of s and cone(B) a
  face of t, and once A and B are the same rays, s & t is that common
  face.  The forms tried, until none shrinks A or B, are the facet normals
  of s and the negated facet normals of t (the separation lemma: Fulton
  1993, 1.2; Cox-Little-Schenck 2011, 1.2.13).  A facet normal is >= 0 on
  its own cone, and its rays on the kernel are read off facet_rays, so
  only its values on the other cone's rays take dot products, and A and B
  are compared as bitsets (_same_rays).  False proves nothing: the caller
  decides the pair exactly.
  """
  cones = (s, t)
  bits = [(1 << len(s.rays)) - 1, (1 << len(t.rays)) - 1]
  where = {r: j for j, r in enumerate(s.rays)}
  to_s = [1 << where[r] if r in where else 0 for r in t.rays]
  changed = True
  while changed:
    changed = False
    for i in (0, 1):
      own, other = cones[i], cones[1 - i]
      for n, keep in zip(own.facet_normals, own.facet_rays):
        on = _cut(n, other.rays, bits[1 - i])
        if on is None or (on == bits[1 - i] and bits[i] & keep == bits[i]):
          continue
        bits[i] &= keep
        bits[1 - i] = on
        if _same_rays(bits[0], bits[1], to_s):
          return True
        changed = True
  return False


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


def _facets(sigma: Cone) -> list:
  """Each facet of sigma as (its normal, its rays), the rays read off the
  stored incidence."""
  return [(nu, _pick(sigma.rays, on))
          for nu, on in zip(sigma.facet_normals, sigma.facet_rays)]


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
