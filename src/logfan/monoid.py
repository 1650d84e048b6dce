"""Finitely generated submonoids of lattices and their homomorphisms.

A monoid is a canonically sorted generator list in an ambient lattice.  The
operations here are the ones that matter for charts and fans: saturation,
sharpening, faces, localization, quotients, pushouts, roots, and the Kummer
and exactness predicates for homomorphisms.  Everything reduces to cone
machinery plus exact lattice arithmetic.  Saturation reads the Hilbert
basis of the monoid's cone when the monoid generates the whole lattice of
the cone's span, and otherwise enumerates one in group coordinates.
Membership searches the multiplicity of each generator on the facet values
of its cone, taking each from an exact interval; its work grows with the
vector, so sizes are capped at desk scale.  A membership search visits at
most MAX_MEMBER_NODES nodes and refuses a vector that needs more with a
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import sub
from types import SimpleNamespace
from typing import NamedTuple

from .cone import (Cone, _dot, _generators, _neg, _smallest_face,
                   hilbert_basis)
from .cone import faces as cone_faces
from .lattice import (
    IntMatrix,
    _echelon_coords,
    _int_tuple,
    _kernel_rows,
    _snf_rows,
    complement_projection,
    kernel_basis,
    rank,
    row_lattice_basis,
)

MAX_AMBIENT_RANK = 6
MAX_GENERATORS = 16
# Search nodes one membership test may visit.  A node counts each time it
# is reached, a memo hit included, so that the budget bounds the work: the
# memo bounds only the distinct nodes, and 82 999 in the monoid of 500,
# 501, 502, 503 reaches its 41 584 distinct nodes 790 244 times.  Apart
# from three tests that pin searches an earlier, slower search refused
# (at most 12 198 visits), the most any test visits is 1 642; the gallery
# reaches no search, and a benchmark workload (seeds 1, 2 and 11) visits
# at most 82.  100 000 visits take 0.25 to 0.5 s (Python 3.11, x86-64).
MAX_MEMBER_NODES = 100_000


@dataclass(frozen=True)
class AffineMonoid:
  """A finitely generated submonoid of Z^ambient_rank.

  Generators are stored deduplicated and sorted, so equal monoid
  presentations compare equal.  The generated group and the recession cone
  are derived on demand and cached: _cone holds the cone once cone has been
  read and is None until then; it is derived, so it is not compared,
  hashed, shown or pickled, and no caller passes it.
  """

  ambient_rank: int
  gens: tuple[tuple[int, ...], ...]
  _cone: Cone | None = field(default=None, init=False, compare=False,
                             repr=False)

  def __post_init__(self):
    if self.ambient_rank < 0 or self.ambient_rank > MAX_AMBIENT_RANK:
      raise ValueError("ambient rank %d outside supported range 0..%d"
                       % (self.ambient_rank, MAX_AMBIENT_RANK))
    if len(self.gens) > MAX_GENERATORS:
      raise ValueError("too many generators (%d > %d)"
                       % (len(self.gens), MAX_GENERATORS))
    for g in self.gens:
      if len(g) != self.ambient_rank:
        raise ValueError("generator %s does not have length %d"
                         % (g, self.ambient_rank))

  @staticmethod
  def make(generators, ambient_rank: int) -> "AffineMonoid":
    gens = set()
    for g in generators:
      g = _int_tuple(g, "generator")
      if len(g) != ambient_rank:
        raise ValueError("generator %s does not have length %d" % (g, ambient_rank))
      if any(g):
        gens.add(g)
    return AffineMonoid(ambient_rank, tuple(sorted(gens)))

  def __reduce__(self):
    return AffineMonoid, (self.ambient_rank, self.gens)

  @property
  def cone(self) -> Cone:
    if self._cone is None:
      object.__setattr__(self, "_cone",
                         Cone.from_rays(self.gens, self.ambient_rank))
    return self._cone

  def contains(self, v) -> bool:
    return membership(self, v)


@lru_cache(maxsize=4096)
def _gp_basis(P: AffineMonoid) -> tuple:
  """Hermite basis of the group generated by the generators (not saturated)."""
  return tuple(tuple(r) for r in
               row_lattice_basis([list(g) for g in P.gens], P.ambient_rank))


class _Split(NamedTuple):
  """The record that _unit_split makes once per monoid; see there."""

  units: tuple
  rest: tuple
  pi: IntMatrix
  pc: Cone
  C: Cone
  values: tuple
  vanish: tuple


@lru_cache(maxsize=4096)
def _unit_split(P: AffineMonoid) -> _Split:
  """Split the generators along the lineality of the recession cone, and
  project once to the quotient by the units.

  units is a Hermite basis of the unit group P*, rest the tuple of the
  other generators, pi the projection that kills the saturated span of the
  units, pc the cone of the images of rest (_member checks that it is
  pointed), and C the cone of P, built here once per monoid.  With no
  units pi is the identity and pc is C, taken as they are.  Write F(x)
  for the values of pi(x) on the facets of pc.  values[i] is F(rest[i]),
  and bit k of vanish[i] is set when every generator from rest[i] on
  vanishes on facet k; vanish has one entry more than rest, with every
  facet set.
  """
  C = P.cone
  is_unit = [C.contains(_neg(g)) for g in P.gens]
  rest = tuple(g for g, u in zip(P.gens, is_unit) if not u)
  units = tuple(tuple(r) for r in row_lattice_basis(
      [list(g) for g, u in zip(P.gens, is_unit) if u], P.ambient_rank))
  if units:
    pi = complement_projection([list(b) for b in units], P.ambient_rank)
    pgens = [pi.apply(g) for g in rest]
    pc = Cone.from_rays(pgens, pi.rows)
  else:
    pi, pgens, pc = IntMatrix.identity(P.ambient_rank), rest, C
  values = tuple(tuple(_dot(nu, pg) for nu in pc.facet_normals)
                 for pg in pgens)
  vanish = [(1 << len(pc.facet_normals)) - 1]
  for f in reversed(values):
    vanish.append(vanish[-1] & ~sum(1 << k for k, x in enumerate(f) if x))
  return _Split(units, rest, pi, pc, C, values, tuple(vanish[::-1]))


@lru_cache(maxsize=65536)
def _member(P: AffineMonoid, v: tuple) -> bool:
  """Whether v is a sum of generators, by a depth-first search over the
  multiplicity of each non-unit generator in turn.

  The search carries F, the facet values of the remainder (see
  _unit_split), not the remainder's image in the unit quotient, and tests
  no cone.  At level i the remainder must end in the cone of rest[i:],
  which lies in pc, so the multiplicity c of rest[i] ranges over exactly
  0 <= c <= min_k floor(F_k / F_k(rest[i])), the c that keep the image in
  pc.  The cone of rest[i + 1:] also lies in the face of pc where every
  facet of vanish[i + 1] vanishes, so the next remainder must read 0 there.
  On a facet of vanish[i] it already does: at level 0 because every facet
  of pc has a generator off it, so vanish[0] is empty, and after that
  because the level before forced it.  On the other facets of
  vanish[i + 1], rest[i] is positive, so c is forced to F_k / F_k(rest[i]),
  and the branch is dead when that does not divide exactly.  Both the
  interval and the forcing are necessary conditions, so no branch they cut
  could succeed.  Past the last generator every facet is in vanish, so F
  = 0 there, and as pc is pointed the image of the remainder is 0: a leaf
  succeeds when what is left of v is a unit.  The memo is keyed by level
  and remainder, and every node reached counts against MAX_MEMBER_NODES,
  memo hits included.
  """
  s = _unit_split(P)
  if not s.C.contains(v):
    return False
  # both bases are Hermite, so echelon: one back-substitution each
  if _echelon_coords(_gp_basis(P), v) is None:
    return False
  units, rest, values, vanish = s.units, s.rest, s.values, s.vanish
  if not rest:
    return _echelon_coords(units, v) is not None
  if not s.pc.is_strictly_convex:
    raise RuntimeError("the cone of the non-unit generators modulo the units "
                       "has lineality")
  if min(map(sum, values)) <= 0:
    raise RuntimeError("a non-unit generator has grading <= 0: %s"
                       % ([sum(f) for f in values],))
  n = len(rest)
  memo = {}
  visits = 0

  def search(i, fw, v_left):
    nonlocal visits
    visits += 1
    if visits > MAX_MEMBER_NODES:
      raise ValueError("membership search capped at %d nodes; %s needs more"
                       % (MAX_MEMBER_NODES, v))
    key = (i, v_left)
    if key in memo:
      return memo[key]
    if i == n:
      out = _echelon_coords(units, v_left) is not None
      memo[key] = out
      return out
    fg, g = values[i], rest[i]
    lo, hi = 0, min([a // b for a, b in zip(fw, fg) if b])
    # the facets on which rest[i] is the last generator that does not vanish
    forced = vanish[i] ^ vanish[i + 1]
    while forced and lo <= hi:
      k = forced.bit_length() - 1
      forced ^= 1 << k
      q, r = divmod(fw[k], fg[k])
      lo = hi + 1 if r else max(lo, q)
    out = False
    if lo <= hi and lo:
      fw = tuple([a - lo * b for a, b in zip(fw, fg)])
      v_left = tuple([a - lo * b for a, b in zip(v_left, g)])
    for c in range(lo, hi + 1):
      if c > lo:
        fw, v_left = tuple(map(sub, fw, fg)), tuple(map(sub, v_left, g))
      if search(i + 1, fw, v_left):
        out = True
        break
    memo[key] = out
    return out

  try:
    w = s.pi.apply(v)
    return search(0, tuple(_dot(nu, w) for nu in s.pc.facet_normals), v)
  finally:
    # search refers to itself, so its memo would wait for the cyclic
    # garbage collector; dropping the name frees it here
    del search


def membership(P: AffineMonoid, x) -> bool:
  """Whether x is a nonnegative integer combination of the generators."""
  if len(x) != P.ambient_rank:
    raise ValueError("vector length %d does not match ambient rank %d"
                     % (len(x), P.ambient_rank))
  return _member(P, _int_tuple(x, "vector"))


def group_completion(P: AffineMonoid) -> list:
  """Hermite basis of the subgroup of the ambient lattice generated by P."""
  return [list(b) for b in _gp_basis(P)]


def _cone_lattice_generators(ineqs, eqs, basis_rows) -> list:
  """Generators of {x in the lattice spanned by basis_rows : x in C} where C
  is the cone cut out by the given inequalities and equalities.

  The lattice basis must consist of independent rows.  Works by rewriting the
  cone in lattice coordinates; the lineality part contributes a group, the
  pointed image contributes a Hilbert basis whose preimages all lie in C
  because every constraint vanishes on the lineality space.
  """
  if not basis_rows:
    return []
  k = len(basis_rows)
  ineq_c = [[_dot(b, nu) for b in basis_rows] for nu in ineqs]
  eq_c = [[_dot(b, s) for b in basis_rows] for s in eqs]
  C = Cone.from_inequalities(ineq_c, eq_c, k)
  gens_c = list(_generators((), C.lineality_basis))
  if C.rays and not C.lineality_basis:
    gens_c.extend(hilbert_basis(C))
  elif C.rays:
    pi = complement_projection([list(b) for b in C.lineality_basis], k)
    # pi is surjective, so its Smith form is D = [I | 0], and V[:, :m]*U*h
    # is a preimage of h: one Smith form lifts the whole Hilbert basis
    _, U, V = _snf_rows(pi.row_list(), pi.rows, k)
    lift = [[_dot(row[:pi.rows], col) for col in zip(*U)] for row in V]
    img = Cone.from_rays([pi.apply(r) for r in C.rays], pi.rows)
    for h in hilbert_basis(img):
      c = tuple(_dot(row, h) for row in lift)
      if not C.contains(c):
        raise RuntimeError("preimage %s of %s is outside the cone" % (c, h))
      gens_c.append(c)
  return [tuple(_dot(c, col) for col in zip(*basis_rows)) for c in gens_c]


def saturation(P: AffineMonoid) -> AffineMonoid:
  """The saturation P^sat = {x in P^gp : n*x in P for some n > 0}.

  Equal to cone(P) intersected with the generated group.  When cone(P) is
  strictly convex and P^gp is the whole lattice of its span (the kernel of
  its span normals, both in Hermite form), that is the monoid of lattice
  points of cone(P), generated by its Hilbert basis, which hilbert_basis
  keeps on the cone.  Any other P is saturated via a Hilbert basis in group
  coordinates (_cone_lattice_generators).
  """
  C = P.cone
  d = P.ambient_rank
  if (C.is_strictly_convex
      and _gp_basis(P) == tuple(_kernel_rows(C.span_normals, d))):
    return AffineMonoid.make(hilbert_basis(C), d)
  basis = [list(b) for b in _gp_basis(P)]
  gens = _cone_lattice_generators(C.facet_normals, C.span_normals, basis)
  return AffineMonoid.make(gens, d)


def structure_queries(P: AffineMonoid) -> SimpleNamespace:
  """Saturation flag, sharpness, unit sublattice, and the sharpening.

  The sharpening is represented in the quotient of the ambient lattice by
  the saturated span of the units, which matches the abstract sharpening for
  the monoids handled here.
  """
  split = _unit_split(P)
  units, pi = split.units, split.pi
  sat = saturation(P)
  is_saturated = all(membership(P, g) for g in sat.gens)
  sharp = AffineMonoid.make([pi.apply(g) for g in P.gens], pi.rows)
  return SimpleNamespace(is_saturated=is_saturated,
                         is_sharp=not units,
                         units=[list(b) for b in units],
                         sharpening=sharp)


def faces(P: AffineMonoid) -> list:
  """All faces of P, each as (face monoid, generator index set).

  A face is a submonoid closed under summand splitting; for an affine monoid
  these are exactly the traces of the faces of the recession cone.  A
  generator lies in a face F iff its smallest face does, that is iff the
  rays of that face (_smallest_face, found once per generator) are among
  F's rays; so no face's facet data is read.
  """
  C = P.cone
  least = [set(_smallest_face(C, g)) for g in P.gens]
  sets = set()
  for F in cone_faces(C):
    rays = set(F.rays)
    sets.add(frozenset(i for i, s in enumerate(least) if s <= rays))
  return [(AffineMonoid.make([P.gens[i] for i in idx], P.ambient_rank), idx)
          for idx in sorted(sets, key=lambda s: (len(s), sorted(s)))]


def _require_face(P: AffineMonoid, F: AffineMonoid) -> frozenset:
  for face, idx in faces(P):
    if face == F:
      return idx
  raise ValueError("%r is not a face of %r" % (F, P))


def localize(P: AffineMonoid, F: AffineMonoid) -> AffineMonoid:
  """P_F = P + (-F), the localization at a face."""
  _require_face(P, F)
  return AffineMonoid.make(list(P.gens) + [_neg(g) for g in F.gens],
                           P.ambient_rank)


def quotient(P: AffineMonoid, F: AffineMonoid) -> AffineMonoid:
  """P/F realized as the image of P in the quotient lattice by span(F)."""
  _require_face(P, F)
  pi = complement_projection([list(g) for g in F.gens], P.ambient_rank)
  return AffineMonoid.make([pi.apply(g) for g in P.gens], pi.rows)


@dataclass(frozen=True)
class MonoidHom:
  """A monoid homomorphism induced by a lattice map between the ambients.

  The matrix must carry every source generator into the target monoid; this
  is verified at construction.
  """

  source: AffineMonoid
  target: AffineMonoid
  gp_matrix: IntMatrix

  def __post_init__(self):
    M = self.gp_matrix
    if M.rows != self.target.ambient_rank or M.cols != self.source.ambient_rank:
      raise ValueError("matrix shape %dx%d does not map rank %d to rank %d"
                       % (M.rows, M.cols, self.source.ambient_rank,
                          self.target.ambient_rank))
    for g in self.source.gens:
      img = M.apply(g)
      if not membership(self.target, img):
        raise ValueError("generator %s maps to %s outside the target monoid"
                         % (g, img))

  def apply(self, v) -> tuple[int, ...]:
    return self.gp_matrix.apply(v)


def amalgamated_sum(left: MonoidHom, right: MonoidHom,
                    mode: str = "integral") -> AffineMonoid:
  """Pushout of target(left) <- source -> target(right).

  The result lives in the quotient of the direct sum of the target lattices
  by the antidiagonal image of the source group.  mode "integral" gives that
  image monoid; mode "saturated" saturates it afterwards.
  """
  if mode not in ("integral", "saturated"):
    raise ValueError("mode must be integral or saturated, got %r" % mode)
  if left.source != right.source:
    raise ValueError("legs must share their source monoid")
  Q1, Q2 = left.target, right.target
  d1, d2 = Q1.ambient_rank, Q2.ambient_rank
  rel = [tuple(left.apply(b)) + _neg(right.apply(b))
         for b in _gp_basis(left.source)]
  pi = complement_projection([list(r) for r in rel], d1 + d2)
  zero2 = (0,) * d2
  zero1 = (0,) * d1
  gens = [pi.apply(tuple(g) + zero2) for g in Q1.gens]
  gens += [pi.apply(zero1 + tuple(g)) for g in Q2.gens]
  out = AffineMonoid.make(gens, pi.rows)
  if mode == "saturated":
    out = saturation(out)
  return out


def nth_root(P: AffineMonoid, n: int) -> tuple[AffineMonoid, IntMatrix]:
  """The n-th root monoid of a saturated P with its refinement map.

  The root monoid has the same generator tuples, read in the lattice that
  refines the ambient by a factor n in every coordinate; the returned matrix
  n*I is the inclusion of the original lattice into the refinement.
  """
  if n < 1:
    raise ValueError("n must be >= 1")
  if not structure_queries(P).is_saturated:
    raise ValueError("nth_root requires a saturated monoid")
  d = P.ambient_rank
  ref = IntMatrix(d, d, tuple(n if i == j else 0
                              for i in range(d) for j in range(d)))
  return AffineMonoid.make(P.gens, d), ref


def _gp_map(theta: MonoidHom) -> IntMatrix:
  """Matrix of the induced map on group completions.

  Rows index a basis of the target group, columns a basis of the source
  group, so the cokernel of this matrix is the group-level cokernel.
  """
  src = _gp_basis(theta.source)
  dst = _gp_basis(theta.target)
  cols = []
  for b in src:
    img = theta.gp_matrix.apply(b)
    # dst is a Hermite basis, so echelon
    coords = _echelon_coords(dst, img)
    if coords is None:
      raise RuntimeError("image %s of %s is outside the target group"
                         % (img, b))
    cols.append(coords)
  m, k = len(dst), len(cols)
  return IntMatrix(m, k, tuple(cols[j][i] for i in range(m) for j in range(k)))


def is_kummer(theta: MonoidHom) -> bool:
  """Whether theta is injective with rationally surjective induced cone map.

  Surjectivity is at the level of rational cones: every target generator
  must lie in the image cone, which is the condition that some positive
  multiple of each target element comes from the source.
  """
  P, Q, M = theta.source, theta.target, theta.gp_matrix
  # injective on P^gp iff the group map has full column rank
  n = _gp_map(theta)
  if rank(n) != n.cols:
    return False
  img_cone = Cone.from_rays([M.apply(g) for g in P.gens], Q.ambient_rank)
  return all(img_cone.contains(q) for q in Q.gens)


def _preimage_generators(theta: MonoidHom) -> list:
  """Generators of {x in source group : theta(x) in target monoid}."""
  P, Q, M = theta.source, theta.target, theta.gp_matrix
  bp = [list(b) for b in _gp_basis(P)]
  k = len(bp)
  if k == 0:
    return []
  d = P.ambient_rank
  if structure_queries(Q).is_saturated:
    # theta(x) in Q  <=>  theta(x) in cone(Q) and theta(x) in Q^gp
    n_cols = [M.apply(b) for b in bp]
    bq = [list(b) for b in _gp_basis(Q)]
    block = [[n_cols[j][i] for j in range(k)] + [-bq[j][i] for j in range(len(bq))]
             for i in range(Q.ambient_rank)]
    ker = kernel_basis(IntMatrix.from_rows(block)) if block else []
    lam = row_lattice_basis([v[:k] for v in ker], k)
    # the x with theta(x) in Q^gp, and cone(Q) pulled back along theta
    basis = [[_dot(c, col) for col in zip(*bp)] for c in lam]
    Mt, CQ = M.transpose(), Q.cone
    gens = _cone_lattice_generators([Mt.apply(nu) for nu in CQ.facet_normals],
                                    [Mt.apply(s) for s in CQ.span_normals],
                                    basis)
  else:
    # pairs (x, c), x in P^gp and c in N^m, with theta(x) = sum c_t q_t
    m = len(Q.gens)
    if k + m > MAX_AMBIENT_RANK:
      raise ValueError(
          "exactness for a non-saturated target needs coefficient rank %d > %d"
          % (k + m, MAX_AMBIENT_RANK))
    eye = [[int(t == s) for t in range(m)] for s in range(m)]
    eqs = [list(M.row(i)) + [-q[i] for q in Q.gens] for i in range(Q.ambient_rank)]
    basis = [b + [0] * m for b in bp] + [[0] * d + e for e in eye]
    gens = [g[:d] for g in _cone_lattice_generators(
        [[0] * d + e for e in eye], eqs, basis)]
  return [x for x in gens if any(x)]


def is_exact(theta: MonoidHom) -> bool:
  """Whether the source equals the full preimage of the target monoid.

  The preimage {x in P^gp : theta(x) in Q} always contains P; exactness
  means nothing else sneaks in, checked on preimage generators.
  """
  return all(membership(theta.source, x) for x in _preimage_generators(theta))
