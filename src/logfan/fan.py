"""Fans of strictly convex cones, fan maps, subdivisions, and refinements.

A fan stores its maximal cones canonically; the face closure is derived.
One exact wall test (_tiles) decides every covering question: whether the
mapped cones of a fan map fill each target cone, whether two fans have the
same support, and whether a fan is complete.  It pairs up the facets of the
pieces and checks a single point, in integer arithmetic, so there is no
sampling anywhere on the decision path.  The completion and resolution
routines are rank-2 only, and the refinement search is a plain bounded
breadth-first search over star subdivision moves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

from .cone import Cone, _dot, hilbert_basis, intersect, is_face_of, is_smooth
from .cone import faces as cone_faces
from .lattice import IntMatrix, is_unimodular


@dataclass(frozen=True)
class Fan:
  """A fan, identified with its canonically sorted set of maximal cones."""

  ambient_rank: int
  max_cones: tuple[Cone, ...]

  @staticmethod
  def make(cones, ambient_rank: int) -> "Fan":
    """Build a fan from any iterable of cones, dropping non-maximal ones.

    No fan axioms are checked here; run validate for that.
    """
    pool = {}
    for c in cones:
      if c.ambient_rank != ambient_rank:
        raise ValueError("cone of ambient rank %d in a rank-%d fan"
                         % (c.ambient_rank, ambient_rank))
      pool[c] = None
    if not pool:
      pool = {Cone.from_rays([], ambient_rank): None}
    # a cone lies only in cones of at least its dimension
    keep = [c for c in pool
            if not any(o is not c and o.dim >= c.dim and o.contains_cone(c)
                       for o in pool)]
    keep.sort(key=lambda c: (c.dim, c.rays))
    return Fan(ambient_rank, tuple(keep))

  @property
  def all_cones(self) -> frozenset:
    return _closure(self)

  @property
  def rays(self) -> tuple:
    """All primitive ray generators appearing in the fan, sorted."""
    out = set()
    for c in self.max_cones:
      out.update(c.rays)
    return tuple(sorted(out))


@functools.lru_cache(maxsize=4096)
def _closure(fan: Fan) -> frozenset:
  out = set()
  for c in fan.max_cones:
    for f in cone_faces(c):
      out.add(f)
  return frozenset(out)


def validate(fan: Fan) -> SimpleNamespace:
  """Check strict convexity and the pairwise common-face condition.

  The report lists one entry per violation instead of raising, so callers
  can show all problems at once.  Face closure is structural here (the
  closure is derived), so the meaningful conditions are convexity and that
  any two maximal cones meet in a common face.
  """
  problems = []
  for c in fan.max_cones:
    if not c.is_strictly_convex:
      problems.append(("not strictly convex", c.rays, c.lineality_basis))
  mc = fan.max_cones
  for i in range(len(mc)):
    for j in range(i + 1, len(mc)):
      w = intersect(mc[i], mc[j])
      if not (is_face_of(w, mc[i]) and is_face_of(w, mc[j])):
        problems.append(("intersection not a common face",
                         mc[i].rays, mc[j].rays))
  return SimpleNamespace(ok=not problems, violations=problems)


def support_query(fan: Fan) -> SimpleNamespace:
  """Point containment test and exact completeness flag for the support.

  The support is complete when every maximal cone is full-dimensional and
  the maximal cones tile the whole space by the wall test of _tiles, with
  no container facets: each facet is shared with exactly one cone on its
  other side, and an interior point of the first cone lies in no other.
  A True answer is always right.  False is exact for a fan; a collection
  of cones that fails validate may read False over a complete support,
  for instance when it covers the space twice.
  """
  d = fan.ambient_rank

  def contains(v) -> bool:
    if len(v) != d:
      raise ValueError("point length %d does not match rank %d" % (len(v), d))
    return any(c.contains(v) for c in fan.max_cones)

  complete = (all(c.dim == d for c in fan.max_cones)
              and _tiles(fan.max_cones))
  return SimpleNamespace(contains=contains, is_complete=complete)


def _holders(matrix: IntMatrix, source: Fan, target: Fan) -> list:
  """For each maximal source cone, its image rays and the indices of the
  maximal target cones that contain them."""
  if matrix.cols != source.ambient_rank or matrix.rows != target.ambient_rank:
    raise ValueError("matrix shape %dx%d does not map rank %d to rank %d"
                     % (matrix.rows, matrix.cols, source.ambient_rank,
                        target.ambient_rank))
  out = []
  for c in source.max_cones:
    imgs = [matrix.apply(r) for r in c.rays]
    out.append((imgs, [i for i, t in enumerate(target.max_cones)
                       if all(t.contains(v) for v in imgs)]))
  return out


def is_fan_map(matrix: IntMatrix, source: Fan, target: Fan) -> bool:
  """Whether the lattice map sends every source cone into some target cone."""
  return all(held for _, held in _holders(matrix, source, target))


@dataclass(frozen=True)
class FanMap:
  """A fan morphism: a lattice map under which cones map into cones."""

  matrix: IntMatrix
  source: Fan
  target: Fan

  def __post_init__(self):
    if not is_fan_map(self.matrix, self.source, self.target):
      raise ValueError("matrix does not carry every source cone into the target fan")


def _tiles(pieces, container: Cone | None = None) -> bool:
  """Whether full-dimensional cones inside a cone tile it exactly.

  The pieces must lie in the container and have its dimension; a container
  of None stands for the whole ambient space, which has no facets.  The
  test passes when both of these hold:

  1. every facet of a piece either lies in a facet of the container, or is
     a facet of exactly one other piece, which lies on its other side;
  2. an interior point of the first piece lies in no other piece.

  A facet is read off its normal: its rays are the piece's rays on which
  the normal vanishes, and its lineality is the piece's.

  Why this suffices: remove from the relative interior of the container
  every codimension-2 face of a piece and every meeting of two facets in
  different hyperplanes.  What is left is still connected, since only
  codimension-2 sets were removed.  Count the pieces over each of its
  points off the facets.  Crossing a facet there changes no count, because
  by 1 the pieces that end at that facet are matched with pieces that begin
  on its other side.  So the pieces cover the container with a constant
  number of sheets, and the point of 2 pins that number to one.  Conversely
  the cones of a fan that tile the container pass both conditions.
  """
  if not pieces:
    return False
  walls = container.facet_normals if container is not None else ()
  sides = {}
  for i, p in enumerate(pieces):
    for nu in p.facet_normals:
      key = (tuple(r for r in p.rays if _dot(nu, r) == 0), p.lineality_basis)
      sides.setdefault(key, []).append((i, nu))
  for (rays, lin), owners in sides.items():
    if any(all(_dot(mu, r) == 0 for r in rays + lin) for mu in walls):
      continue
    if len(owners) != 2:
      return False
    (_, nu), (j, _) = owners
    if _dot(nu, pieces[j].interior_point()) >= 0:
      return False
  x = pieces[0].interior_point()
  return not any(p.contains(x) for p in pieces[1:])


def subdivision_predicates(matrix: IntMatrix, source: Fan,
                           target: Fan) -> SimpleNamespace:
  """Partial-subdivision and subdivision flags for a fan map.

  Partial means the lattice map is an isomorphism; full subdivision
  additionally needs the mapped source cones to fill every maximal target
  cone t, decided by the wall test of _tiles.

  Precondition: source and target are fans (see validate).  Then the pieces
  of t are the mapped source cones of t's dimension that t contains: if a
  mapped cone m meets t in a cone of t's dimension and m lies in the
  maximal target cone t', then t and t' meet in a common face of t's
  dimension, so t = t'.  Without the precondition a True answer still
  holds, since the wall test shows that every target cone is tiled by
  mapped cones, but a False answer may be wrong.  The proof of the wall
  test is in the docstring of _tiles.
  """
  holders = _holders(matrix, source, target)
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


def star_subdivision(fan: Fan, tau: Cone) -> Fan:
  """Subdivide at the barycentric ray of tau.

  Every maximal cone containing tau is replaced by the cones spanned by its
  rays with one tau ray swapped out for the center c = sum of tau's rays;
  the rest of the fan is untouched.  Containing cones must be smooth so
  that faces are ray subsets and the center is primitive.
  """
  if tau not in fan.all_cones:
    raise ValueError("tau is not a cone of the fan")
  if tau.dim == 0:
    raise ValueError("cannot subdivide at the zero cone")
  tset = set(tau.rays)
  holders = [c for c in fan.max_cones if tset <= set(c.rays)]
  for c in fan.all_cones:
    if tset <= set(c.rays) and not is_smooth(c):
      raise ValueError("a cone containing tau is singular")
  center = tuple(sum(r[i] for r in tau.rays) for i in range(fan.ambient_rank))
  out = [c for c in fan.max_cones if c not in holders]
  for c in holders:
    for a in tau.rays:
      rest = [r for r in c.rays if r != a]
      out.append(Cone.from_rays(rest + [center], fan.ambient_rank))
  return Fan.make(out, fan.ambient_rank)


def fiber_product(left: FanMap, right: FanMap) -> Fan:
  """Fiber product of two fan maps with a common target fan.

  Requires at least one leg to be a partial subdivision (its matrix a
  lattice isomorphism).  The result lives in the ambient of the other leg:
  each cone is the preimage of a mapped left cone intersected with a right
  cone, computed from stacked inequality systems.
  """
  if left.target != right.target:
    raise ValueError("legs must share their target fan")
  if is_unimodular(left.matrix):
    a, b = left, right
  elif is_unimodular(right.matrix):
    a, b = right, left
  else:
    raise ValueError("neither leg is a partial subdivision")
  d = b.source.ambient_rank
  pieces = []
  for ca in a.source.max_cones:
    img = Cone.from_rays([a.matrix.apply(r) for r in ca.rays],
                         a.target.ambient_rank)
    pull_ineq = [_row_times(nu, b.matrix) for nu in img.facet_normals]
    pull_eq = [_row_times(s, b.matrix) for s in img.span_normals]
    for cb in b.source.max_cones:
      ineqs = pull_ineq + [list(nu) for nu in cb.facet_normals]
      eqs = pull_eq + [list(s) for s in cb.span_normals]
      pieces.append(Cone.from_inequalities(ineqs, eqs, d))
  return Fan.make(pieces, d)


def _row_times(nu, m: IntMatrix) -> list:
  return [sum(nu[i] * m.entry(i, j) for i in range(m.rows))
          for j in range(m.cols)]


def product_fan(f1: Fan, f2: Fan) -> Fan:
  """Fan in the direct sum whose maximal cones are pairwise products."""
  d1, d2 = f1.ambient_rank, f2.ambient_rank
  z1, z2 = (0,) * d1, (0,) * d2
  out = []
  for a in f1.max_cones:
    for b in f2.max_cones:
      rays = [tuple(r) + z2 for r in a.rays] + [z1 + tuple(r) for r in b.rays]
      out.append(Cone.from_rays(rays, d1 + d2))
  return Fan.make(out, d1 + d2)


def _angle_class(v):
  # 0 for the open upper half plane plus the positive x-axis, 1 below
  if v[1] > 0 or (v[1] == 0 and v[0] > 0):
    return 0
  return 1


def _ccw_cmp(a, b):
  if a == b:
    return 0
  ha, hb = _angle_class(a), _angle_class(b)
  if ha != hb:
    return -1 if ha < hb else 1
  cr = a[0] * b[1] - a[1] * b[0]
  if cr == 0:
    return 0
  return -1 if cr > 0 else 1


def complete_2d(fan: Fan) -> Fan:
  """Extend a rank-2 fan to a complete one by a fixed gap-filling rule.

  Rays are sorted counterclockwise; an uncovered angular gap wider than a
  half turn first receives the negation of its starting ray, a gap of
  exactly a half turn receives the perpendicular of its start, and what
  remains is closed off with single cones.  The input fan must be valid.
  """
  if fan.ambient_rank != 2:
    raise ValueError("completion rule is specific to rank 2")
  rays = [tuple(r) for r in fan.rays]
  if not rays:
    rays = [(1, 0)]
  two_cones = [c for c in fan.max_cones if c.dim == 2]

  def sort_ccw(rs):
    return sorted(rs, key=functools.cmp_to_key(_ccw_cmp))

  def sector_covered(a, b):
    # the gap runs counterclockwise from a to b; an existing cone with ray
    # set {a, b} spans the short side, which is that gap only if cross > 0
    cr = a[0] * b[1] - a[1] * b[0]
    return cr > 0 and any(set((a, b)) == set(c.rays) for c in two_cones)

  while True:
    rays = sort_ccw(rays)
    inserted = False
    for i, a in enumerate(rays):
      b = rays[(i + 1) % len(rays)]
      if sector_covered(a, b):
        continue
      cr = a[0] * b[1] - a[1] * b[0]
      if len(rays) == 1 or cr < 0:
        rays.append((-a[0], -a[1]))
        inserted = True
        break
      if cr == 0:
        rays.append((-a[1], a[0]))
        inserted = True
        break
    if not inserted:
      break
  rays = sort_ccw(rays)
  out = list(fan.max_cones)
  for i, a in enumerate(rays):
    b = rays[(i + 1) % len(rays)]
    if not sector_covered(a, b):
      out.append(Cone.from_rays([a, b], 2))
  return Fan.make(out, 2)


def _insert_ray_2d(fan: Fan, ray) -> Fan:
  """Stellar insertion of a primitive ray into a rank-2 fan: every
  two-dimensional cone whose relative interior meets the ray is split."""
  out = []
  for c in fan.max_cones:
    if c.dim == 2 and c.contains(ray) and ray not in c.rays:
      a, b = c.rays
      out.append(Cone.from_rays([a, ray], 2))
      out.append(Cone.from_rays([ray, b], 2))
    else:
      out.append(c)
  return Fan.make(out, 2)


def resolve_2d(fan: Fan) -> tuple[Fan, list]:
  """Make every cone of a rank-2 fan smooth by inserting Hilbert basis rays.

  Returns the resolved fan and the rays inserted, in order.  Each step
  picks the smallest non-ray Hilbert basis element of the singular 2-cone
  with the smallest rays, so the run is deterministic.  The singular
  2-cones are kept as a set: an insertion drops the cones it split, and
  only the cones it created are tested, so each cone is tested once.

  Raises:
    ValueError: if the fan is not of rank 2, or a 2-cone has lineality.
    RuntimeError: if a singular 2-cone has no Hilbert basis element off its
      rays, which cannot happen for a strictly convex one.
  """
  if fan.ambient_rank != 2:
    raise ValueError("resolution rule is specific to rank 2")
  cur = fan
  steps = []
  bad = {c for c in cur.max_cones if c.dim == 2 and not is_smooth(c)}
  while bad:
    c = min(bad, key=lambda b: b.rays)
    extra = sorted(h for h in hilbert_basis(c) if h not in c.rays)
    if not extra:
      raise RuntimeError("singular rank-2 cone %s has no interior Hilbert "
                         "basis element" % (c.rays,))
    nxt = _insert_ray_2d(cur, extra[0])
    born = set(nxt.max_cones).difference(cur.max_cones)
    bad.intersection_update(nxt.max_cones)
    bad.update(b for b in born if b.dim == 2 and not is_smooth(b))
    cur = nxt
    steps.append(extra[0])
  return cur, steps


def _support_equal(f1: Fan, f2: Fan) -> bool:
  """Whether two fans have the same support: the full-dimensional
  intersections with each maximal cone of either fan tile that cone."""
  for a, b in ((f1, f2), (f2, f1)):
    for t in b.max_cones:
      pieces = [p for p in (intersect(s, t) for s in a.max_cones)
                if p.dim == t.dim]
      if not _tiles(pieces, t):
        return False
  return True


def search_refinement(fan: Fan, goal: Fan, depth: int = 4):
  """Breadth-first search for star subdivisions taking fan below goal.

  Returns the list of subdivision centers (cones of the intermediate fans)
  if some sequence of at most depth moves makes the result a subdivision
  of goal, and None when the search space is exhausted first.  None means
  "not found within depth", never a proof of impossibility.

  Raises:
    ValueError: if either input fails validate (the message names which),
      has a singular cone, or the two supports differ.
  """
  if fan.ambient_rank != goal.ambient_rank:
    raise ValueError("ambient ranks differ")
  for label, f in (("fan to refine", fan), ("goal fan", goal)):
    report = validate(f)
    if not report.ok:
      kind, first, second = report.violations[0]
      raise ValueError("the %s is not a fan: %s -- %s vs %s"
                       % (label, kind, first, second))
  for c in list(fan.max_cones) + list(goal.max_cones):
    if not is_smooth(c):
      raise ValueError("search requires smooth fans on both sides")
  if not _support_equal(fan, goal):
    raise ValueError("supports differ")
  ident = IntMatrix.identity(fan.ambient_rank)

  def refines(f):
    return is_fan_map(ident, f, goal)

  if refines(fan):
    return []
  frontier = [(fan, [])]
  seen = {fan}
  for _ in range(depth):
    nxt = []
    for cur, path in frontier:
      for tau in sorted(cur.all_cones, key=lambda c: (c.dim, c.rays)):
        if tau.dim < 2:
          continue
        cand = star_subdivision(cur, tau)
        if cand in seen:
          continue
        seen.add(cand)
        if refines(cand):
          return path + [tau]
        nxt.append((cand, path + [tau]))
    frontier = nxt
  return None
