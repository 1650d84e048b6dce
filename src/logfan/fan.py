"""Fans of strictly convex cones, fan maps, subdivisions, and refinements.

A Fan is its set of maximal cones, canonical by construction: repeats go,
ranks are checked and the cones are sorted.  Only Fan.make drops cones that
lie in others, for input whose cones may nest (parsed documents, fiber
products, boundary subfans, the gallery); it runs contains_cone only on the
pairs past three exact screens (dimension, the coordinate half-spaces that
hold each cone, the interior point), which reject every pair of a fan.
Faces are cone.py's: all_cones is its one face pass, and star_subdivision
asks its one face test of the maximal cones that have tau's rays.  No face
closure is kept; the cones whose relative interior holds a point are read
off the maximal cones (_cones_at).  validate accepts strictly convex
full-dimensional cones that pass the wall test below with no pair tested;
any other input takes one common-face test per pair: cone.py's separation
certificate on the stored incidence (_certified), with the intersection as
the exact fallback.  Cones are read through
cone.py only: their generators wherever the lineality counts, and a
facet's rays from _facets.  One exact wall test (_tiles) decides
every covering question (a fan map's image filling each target cone, equal
supports, completeness) by pairing up the facets of the pieces and
checking one point, in integers, with no sampling.  One holder search
(_holders), for a target fan, answers is_fan_map and the pieces of
subdivision_predicates: through an index from rays to target cones, the
cones with every image vector among their rays, or else one holder and
the rest read off the smallest face of it holding the image.  Completion
and resolution are rank-2 only.  The refinement search is a bounded
breadth-first search over star subdivisions, with a budget on the moves it
tries (MAX_SEARCH_STARS).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

from .cone import (Cone, _certified, _chain, _dot, _face_map, _facets,
                   _generators, _is_face, _neg, _order_key, _smallest_face,
                   intersect, is_face_of, is_smooth)
from .lattice import IntMatrix, is_unimodular

# search_refinement refuses to try more star subdivisions than this.  The
# most tried in the tests (other than those of the budget itself), the
# gallery and the benchmark is 5.  At the budget (Python 3.11, x86-64) the
# search from the rank-10 orthant to its star subdivision at the whole
# cone, which tries every face of dimension >= 2 before the whole cone and
# took 13 s, is refused after 1.3 s.
MAX_SEARCH_STARS = 200


@dataclass(frozen=True)
class Fan:
  """A fan, identified with its canonically sorted set of maximal cones.

  Construction drops repeats, checks ranks, turns no cones into the zero
  cone and sorts by _order_key, but keeps a cone that lies in another.
  """

  ambient_rank: int
  max_cones: tuple[Cone, ...]

  def __post_init__(self):
    cones = (_distinct(self.max_cones, self.ambient_rank)
             or [Cone.from_rays([], self.ambient_rank)])
    object.__setattr__(self, "max_cones", tuple(sorted(cones, key=_order_key)))

  @staticmethod
  def make(cones, ambient_rank: int) -> "Fan":
    """Build a fan from any iterable of cones, dropping non-maximal ones.

    One exact filter, contains_cone, decides whether a cone o holds a cone
    c; a pair reaches it only past three necessary conditions, each read
    from data taken once per cone per call.  o must have at least c's
    dimension.  Every coordinate half-space x_i >= 0 or x_i <= 0 that holds
    o must hold c, since it holds every cone inside o (_halfspaces).  And o
    must hold c's interior point, the sum of c's rays, which lies in c.  In
    a fan no maximal cone holds a point of another's relative interior, so
    on the cones of a fan the last screen settles every pair.

    No fan axioms are checked here; run validate for that.
    """
    groups = {}
    for c in _distinct(cones, ambient_rank):
      groups.setdefault(_halfspaces(c), []).append(c)
    out = []
    for held, group in groups.items():
      # the cones whose coordinate half-spaces all hold this group's cones
      outer = [o for oheld, g in groups.items() if not oheld & ~held
               for o in g]
      for c in group:
        x = c.interior_point()
        if not any(o is not c and o.dim >= c.dim and o.contains(x)
                   and o.contains_cone(c) for o in outer):
          out.append(c)
    return Fan(ambient_rank, tuple(out))

  @property
  def all_cones(self) -> frozenset:
    """Every face of every maximal cone, enumerated on each read by the
    face pass of cone.py (_face_map): a shared face is built once, with
    its facet data left to its first read, and MAX_FACES holds for the
    whole fan before any face is built.

    Raises:
      ValueError: if the fan has more than MAX_FACES cones.
    """
    return frozenset(_face_map(self.max_cones).values())

  @property
  def rays(self) -> tuple:
    """All primitive ray generators appearing in the fan, sorted."""
    return tuple(sorted({r for c in self.max_cones for r in c.rays}))


def _halfspaces(c: Cone) -> int:
  """The int bitset of the coordinate half-spaces that hold c: bit 2i for
  x_i >= 0 and bit 2i + 1 for x_i <= 0, read off c's generators.  A cone
  inside c lies in every half-space that holds c."""
  bits = (1 << 2 * c.ambient_rank) - 1
  for r in c.generators:
    for i, a in enumerate(r):
      if a:
        bits &= ~(1 << 2 * i + (a > 0))
  return bits


def _distinct(cones, d: int) -> list:
  """The cones without repeats, in order, each checked to be of rank d."""
  out = list(dict.fromkeys(cones))
  for c in out:
    if c.ambient_rank != d:
      raise ValueError("cone of ambient rank %d in a rank-%d fan"
                       % (c.ambient_rank, d))
  return out


def _cones_at(fan: Fan, x) -> list:
  """The closure's cones whose relative interior holds x, by _order_key: a
  face of c has x there iff it is the smallest face of c holding x
  (_smallest_face, with c's lineality).  No fan axiom is needed."""
  out = {Cone.from_rays(_generators(_smallest_face(c, x), c.lineality_basis),
                        fan.ambient_rank)
         for c in fan.max_cones if c.contains(x)}
  return sorted(out, key=_order_key)


def validate(fan: Fan) -> SimpleNamespace:
  """Check strict convexity and that any two maximal cones meet in a
  common face.

  The report lists one entry per violation instead of raising, so callers
  can show all problems at once.  If every maximal cone is full-dimensional
  and strictly convex and the wall test of _tiles passes on the whole
  space, the report is ok, with fallbacks 0, and no pair is tested.  Proof:
  for maximal cones s != t take y in the relative interior of s & t, and F
  the face of t with y in its relative interior.  The cones with F as a
  face are closed under crossing their facets through F, so modulo span F
  they pass the wall condition of _tiles, and its connectivity argument
  makes them cover a neighbourhood of y a constant number of times.  The
  tiling has one sheet, so s, which has interior points near y, is one of
  them.  A face of t that holds a relative-interior point of the convex set
  s & t holds all of it, so s & t = F, a face of both.  Any other input
  takes the pair pass (_pair_pass), the only route that names a violation.
  The report's tiled is True when the wall test passed, which also makes
  the support complete, and False when it was not run or failed.
  """
  d = fan.ambient_rank
  if (all(c.dim == d and c.is_strictly_convex for c in fan.max_cones)
      and _tiles(fan.max_cones)):
    return SimpleNamespace(ok=True, violations=[], fallbacks=0, tiled=True)
  report = _pair_pass(fan)
  report.tiled = False
  return report


def _pair_pass(fan: Fan) -> SimpleNamespace:
  """validate's report from the cones and their pairs.

  A cone that is not strictly convex is reported once and left out of the
  pairwise test.  Each pair of strictly convex maximal cones is first tried
  by the separation certificate of _certified, which holds only for a pair
  meeting in a common face; a pair it leaves open is decided exactly by
  intersecting the two cones and testing the intersection to be a face of
  each.  So the report does not depend on the certificate, and fallbacks
  counts the pairs that took the exact test.
  """
  problems = []
  for c in fan.max_cones:
    if not c.is_strictly_convex:
      problems.append(("not strictly convex", c.rays, c.lineality_basis))
  # the face test needs strictly convex cones; the others are reported above
  mc = [c for c in fan.max_cones if c.is_strictly_convex]
  fallbacks = 0
  for s, t in itertools.combinations(mc, 2):
    if _certified(s, t):
      continue
    fallbacks += 1
    w = intersect(s, t)
    if not (is_face_of(w, s) and is_face_of(w, t)):
      problems.append(("intersection not a common face", s.rays, t.rays))
  return SimpleNamespace(ok=not problems, violations=problems,
                         fallbacks=fallbacks)


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


def _holds(t: Cone, imgs) -> bool:
  return all(t.contains(v) for v in imgs)


def _holders(matrix: IntMatrix, source: Fan, target: Fan) -> list:
  """For each maximal source cone, its image vectors and the indices of the
  maximal target cones that contain them.

  The image vectors are the images of the cone's rays and of both signs of
  each lineality generator, so that they generate the image of the whole
  cone; each distinct source vector is mapped once.  The search runs on an
  index from each target ray to the maximal target cones that have it.

  A target cone that has every image vector among its rays holds the
  image, with no test.  When there are such cones, they are the holders:
  if the target is a fan, a maximal target cone t' holding the image meets
  such a cone t in a common face, which holds the image and so contains
  the smallest face F of t holding it; the image vectors are rays of t in
  F, hence rays of F, and F is a face of t', so they are rays of t'.

  Otherwise one holder t is searched for: the target cones that have some
  image vector among their rays are tried first, then all of them in
  order, so finding none is exact for any target.  The sum x of the image
  vectors lies in the relative interior of the image, so the smallest face
  F of t holding the image is the smallest face holding x, whose rays are
  read off the stored incidence of t (_smallest_face); when x is interior
  to t, F is t itself.  As above, if the target is a fan, every maximal
  target cone holding the image has F as a face, so its rays include
  those of F.  The holders are therefore the maximal target cones whose
  rays include those of F, found through the ray index, and for x
  interior to t that is t alone.

  Precondition: the target is a fan; the source need not be one.  A cone
  listed either has every image vector among its rays or has every ray of
  F, which holds the image; for a strictly convex t that shows it holds
  the image with no test, and for a t with lineality each cone is tested.
  So for a target that is not a fan the lists hold only true holders but
  may miss some, and a list is empty exactly when no target cone holds the
  image.
  """
  if matrix.cols != source.ambient_rank or matrix.rows != target.ambient_rank:
    raise ValueError("matrix shape %dx%d does not map rank %d to rank %d"
                     % (matrix.rows, matrix.cols, source.ambient_rank,
                        target.ambient_rank))
  cones = target.max_cones
  index = {}
  for i, t in enumerate(cones):
    for r in t.rays:
      index.setdefault(r, set()).add(i)
  rows = [matrix.row(i) for i in range(matrix.rows)]
  gens = [c.generators for c in source.max_cones]
  image = {v: tuple(_dot(row, v) for row in rows)
           for v in dict.fromkeys(itertools.chain.from_iterable(gens))}
  out = []
  for g in gens:
    imgs = [image[v] for v in g]
    sets = [index.get(v, ()) for v in imgs]
    common = set(sets[0]).intersection(*sets[1:]) if sets else ()
    if common:
      out.append((imgs, sorted(common)))
      continue
    near = sorted(set().union(*sets))
    first = next((i for i in itertools.chain(near, range(len(cones)))
                  if _holds(cones[i], imgs)), None)
    if first is None:
      out.append((imgs, []))
      continue
    t = cones[first]
    x = [sum(col) for col in zip(*imgs)] or [0] * target.ambient_rank
    face = _smallest_face(t, x)
    near = (set.intersection(*(index[r] for r in face)) if face
            else range(len(cones)))
    if not t.is_strictly_convex:
      near = [i for i in near if i == first or _holds(cones[i], imgs)]
    out.append((imgs, sorted(near)))
  return out


def is_fan_map(matrix: IntMatrix, source: Fan, target: Fan) -> bool:
  """Whether the lattice map sends every source cone into some target cone.

  The image of a source cone is generated by the images of its rays and
  of both signs of its lineality, so a cone with lineality is held only by
  a target cone holding its whole image.  A holder list of _holders is
  empty exactly when no target cone holds the image, so the answer assumes
  nothing of the target: it is exact also when the target is not a fan.
  """
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

  A facet is read off the stored incidence (_facets), and its lineality
  is the piece's.

  Why this suffices: remove from the relative interior of the container
  every codimension-2 face of a piece and every meeting of two facets in
  different hyperplanes.  What is left is still connected, since only
  codimension-2 sets were removed.  Count the pieces over each of its
  points off the facets.  Crossing a facet there changes no count, because
  by 1 the pieces that end at that facet are matched with pieces that begin
  on its other side.  So the pieces cover the container with a constant
  number of sheets, and the point of 2 pins that number to one.  Conversely
  the cones of a fan that tile the container pass both conditions.  On the
  whole space a pass also proves strictly convex pieces a fan (validate).
  """
  if not pieces:
    return False
  if len(pieces) == 1 and pieces[0] == container:
    return True
  walls = container.facet_normals if container is not None else ()
  points = [None] * len(pieces)
  sides = {}
  for i, p in enumerate(pieces):
    for nu, rays in _facets(p):
      sides.setdefault((rays, p.lineality_basis), []).append((i, nu))
  for (rays, lin), owners in sides.items():
    if any(all(_dot(mu, r) == 0 for r in rays + lin) for mu in walls):
      continue
    if len(owners) != 2:
      return False
    (_, nu), (j, _) = owners
    if points[j] is None:
      points[j] = pieces[j].interior_point()
    if _dot(nu, points[j]) >= 0:
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

  The mapped cone of a source cone is generated by the image vectors of
  _holders, the images of its rays and of both signs of its lineality.
  The pieces are read off the holder lists of _holders, whose search also
  assumes a target fan.  On a target that is not a fan a list may miss a
  holder, so a cone may lack a piece: with a fan as source, that can turn
  a True answer into False, never a False into True, because a piece that
  lies in t but is not listed for t would overlap t's listed pieces.
  """
  holders = _holders(matrix, source, target)
  if not all(held for _, held in holders):
    raise ValueError("not a fan map")
  partial = is_unimodular(matrix)
  full = False
  if partial:
    cones = target.max_cones
    pieces = [[] for _ in cones]
    for c, (imgs, held) in zip(source.max_cones, holders):
      # a cone whose generators the map fixes is its own image
      m = (c if tuple(imgs) == c.generators
           else Cone.from_rays(imgs, target.ambient_rank))
      for i in held:
        if m.dim == cones[i].dim:
          pieces[i].append(m)
    full = all(_tiles(p, t) for p, t in zip(pieces, cones))
  return SimpleNamespace(is_partial_subdivision=partial, is_subdivision=full)


def star_subdivision(fan: Fan, tau: Cone) -> Fan:
  """Subdivide at the barycentric ray of tau.

  Every maximal cone containing tau is replaced by the cones spanned by its
  rays with one tau ray swapped out for the center c = sum of tau's rays;
  the rest of the fan is untouched.  Containing cones must be smooth so
  that faces are ray subsets and the center is primitive.

  tau is a cone of the fan iff it is a face (_is_face, on the stored
  incidence) of a holder, a maximal cone with every ray of tau.

  Precondition: the input is a fan (see validate).  Then every cone of the
  result is maximal, so it skips Fan.make's filter; on a non-fan a new
  cone may lie in an untouched one, and the result lists both.
  """
  center = tau.interior_point()
  tset = set(tau.rays)
  holders = [c for c in fan.max_cones if tset <= set(c.rays)]
  if not any(_is_face(tau, c) for c in holders):
    raise ValueError("tau is not a cone of the fan")
  if tau.dim == 0:
    raise ValueError("cannot subdivide at the zero cone")
  # every cone containing tau is a face of a holder, and faces of smooth
  # cones are smooth
  if not all(is_smooth(c) for c in holders):
    raise ValueError("a cone containing tau is singular")
  out = [c for c in fan.max_cones if c not in holders]
  for c in holders:
    for a in tau.rays:
      rest = [r for r in c.rays if r != a]
      out.append(Cone.from_rays(rest + [center], fan.ambient_rank))
  return Fan(fan.ambient_rank, tuple(out))


def fiber_product(left: FanMap, right: FanMap) -> Fan:
  """Fiber product of two fan maps with a common target fan.

  Requires at least one leg to be a partial subdivision (its matrix a
  lattice isomorphism).  The result lives in the ambient of the other leg:
  each cone is the preimage of a mapped cone of that leg, the image of a
  source cone's generators, lineality included, intersected with a cone
  of the other leg, computed from stacked inequality systems.
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
  bt = b.matrix.transpose()
  pieces = []
  for ca in a.source.max_cones:
    img = Cone.from_rays([a.matrix.apply(r) for r in ca.generators],
                         a.target.ambient_rank)
    pull_ineq = [bt.apply(nu) for nu in img.facet_normals]
    pull_eq = [bt.apply(s) for s in img.span_normals]
    for cb in b.source.max_cones:
      ineqs = pull_ineq + list(cb.facet_normals)
      eqs = pull_eq + list(cb.span_normals)
      pieces.append(Cone.from_inequalities(ineqs, eqs, d))
  return Fan.make(pieces, d)


def product_fan(f1: Fan, f2: Fan) -> Fan:
  """Fan in the direct sum whose maximal cones are pairwise products, a x b
  generated by the generators of a and of b, lineality included, so of
  dimension dim a + dim b.

  Precondition: both inputs are fans (see validate).  a x b lies in a' x b'
  iff a lies in a' and b in b', so every product is maximal and Fan.make's
  filter is skipped; an input with nested cones gives nested products.
  """
  d1, d2 = f1.ambient_rank, f2.ambient_rank
  z1, z2 = (0,) * d1, (0,) * d2
  out = []
  for a in f1.max_cones:
    for b in f2.max_cones:
      gens = [r + z2 for r in a.generators] + [z1 + r for r in b.generators]
      out.append(Cone.from_rays(gens, d1 + d2))
  return Fan(d1 + d2, tuple(out))


def _angle_class(v):
  # 0 for the open upper half plane plus the positive x-axis, 1 below
  if v[1] > 0 or (v[1] == 0 and v[0] > 0):
    return 0
  return 1


def _cross(a, b) -> int:
  return a[0] * b[1] - a[1] * b[0]


def _ccw_cmp(a, b):
  if a == b:
    return 0
  ha, hb = _angle_class(a), _angle_class(b)
  if ha != hb:
    return -1 if ha < hb else 1
  cr = _cross(a, b)
  if cr == 0:
    return 0
  return -1 if cr > 0 else 1


def complete_2d(fan: Fan) -> Fan:
  """Extend a rank-2 fan to a complete one by a fixed gap-filling rule.

  Rays are sorted counterclockwise.  Each gap between consecutive rays
  that no 2-cone covers is filled on its own: a gap wider than a half turn
  (or a single ray's full turn) receives the negation of its start, one of
  exactly a half turn the perpendicular of its start, and consecutive stops
  span one cone each.  Every ray then lies in a 2-cone, so the result is
  the input's 2-cones plus the new ones.  The input fan must be valid.
  """
  if fan.ambient_rank != 2:
    raise ValueError("completion rule is specific to rank 2")
  rays = sorted(fan.rays, key=functools.cmp_to_key(_ccw_cmp)) or [(1, 0)]
  out = [c for c in fan.max_cones if c.dim == 2]
  covered = {c.rays for c in out}
  for s, t in zip(rays, rays[1:] + rays[:1]):
    # a 2-cone on s and t spans the short side, the gap only if cross > 0
    if _cross(s, t) > 0 and tuple(sorted((s, t))) in covered:
      continue
    stops = [s, t]
    i = 0
    while i + 1 < len(stops):
      a, b = stops[i], stops[i + 1]
      cr = _cross(a, b)
      if a == b or cr < 0:
        stops.insert(i + 1, _neg(a))
      elif cr == 0:
        stops.insert(i + 1, (-a[1], a[0]))
      else:
        i += 1
    out.extend(Cone.from_rays(pair, 2) for pair in zip(stops, stops[1:]))
  return Fan(2, tuple(out))


def resolve_2d(fan: Fan) -> tuple[Fan, list]:
  """Make every cone of a rank-2 fan smooth by inserting Hilbert basis rays.

  Returns the resolved fan and the rays inserted, in order.  Each step
  picks the smallest non-ray Hilbert basis element of the singular 2-cone
  with the smallest rays, so the run is deterministic.

  The Hilbert basis of a strictly convex 2-cone, in angular order from one
  ray to the other, is the chain of vertices of the compact edges of the
  convex hull of its nonzero lattice points; consecutive elements span
  smooth cones, and their Hirzebruch-Jung continued fraction is the
  resolution (Oda 1988, 1.6; Fulton 1993, 2.6).  The subcone spanned by two
  elements of the chain has as its Hilbert basis the part of the chain
  between them, since its hull has the same compact edges there.  So each
  singular input cone takes one chain (cone.py's _chain), already in
  angular order from its first ray to its second, with work equal to its
  length; a subcone is a slice of its chain, singular iff the slice has an
  interior element, and the insertions are replayed on a heap keyed by the
  subcone's rays.  The result is the input's other cones plus the cones of
  consecutive chain elements, all maximal, so the fan is built once
  without Fan.make.

  Precondition: the input is a fan (see validate).  Then each inserted ray
  lies in the relative interior of one maximal cone only, which it splits.

  Raises:
    ValueError: if the fan is not of rank 2, a 2-cone has lineality, or a
      chain would pass MAX_HILBERT_INDEX + 1 elements.
    RuntimeError: if a singular 2-cone has no Hilbert basis element off its
      rays, which cannot happen for a strictly convex one.
  """
  if fan.ambient_rank != 2:
    raise ValueError("resolution rule is specific to rank 2")
  keep = []
  chains = []
  heap = []
  for c in fan.max_cones:
    if c.dim != 2 or is_smooth(c):
      keep.append(c)
      continue
    chain = _chain(c)
    if len(chain) < 3:
      raise RuntimeError("singular rank-2 cone %s has no interior Hilbert "
                         "basis element" % (c.rays,))
    chains.append(chain)
    heapq.heappush(heap, (c.rays, len(chains) - 1, 0, len(chain) - 1))
  steps = []
  while heap:
    _, k, i, j = heapq.heappop(heap)
    chain = chains[k]
    m = min(range(i + 1, j), key=chain.__getitem__)
    steps.append(chain[m])
    for lo, hi in ((i, m), (m, j)):
      if hi - lo > 1:
        heapq.heappush(heap, (tuple(sorted((chain[lo], chain[hi]))), k, lo, hi))
  for chain in chains:
    keep.extend(Cone.from_rays(pair, 2) for pair in zip(chain, chain[1:]))
  return Fan(2, tuple(keep)), steps


def _support_equal(f1: Fan, f2: Fan) -> bool:
  """Whether two fans have the same support: the full-dimensional
  intersections with each maximal cone of either fan tile that cone.
  Each pair of maximal cones is intersected once, and its meeting read
  from both sides: a cone of f2 gets its pieces in f1's order, a cone of
  f1 in f2's."""
  meets = [[intersect(s, t) for t in f2.max_cones] for s in f1.max_cones]
  for cones, rows in ((f2.max_cones, zip(*meets)), (f1.max_cones, meets)):
    for t, row in zip(cones, rows):
      if not _tiles([p for p in row if p.dim == t.dim], t):
        return False
  return True


def _require_fan(fan: Fan, label: str) -> Fan:
  """Return fan, or raise ValueError, naming label and the first violation,
  if fan fails validate."""
  report = validate(fan)
  if not report.ok:
    kind, first, second = report.violations[0]
    raise ValueError("%s is not a fan: %s -- %s vs %s"
                     % (label, kind, first, second))
  return fan


def search_refinement(fan: Fan, goal: Fan, depth: int = 4):
  """Breadth-first search for star subdivisions taking fan below goal.

  Returns the list of subdivision centers (cones of the intermediate fans)
  if some sequence of at most depth moves makes the result a subdivision
  of goal, and None when the search space is exhausted first.  None means
  "not found within depth", never a proof of impossibility.

  Raises:
    ValueError: if either input fails validate (the message names which),
      has a singular cone, or the two supports differ, or if the search
      would try more than MAX_SEARCH_STARS star subdivisions.
  """
  if fan.ambient_rank != goal.ambient_rank:
    raise ValueError("ambient ranks differ")
  _require_fan(fan, "the fan to refine")
  _require_fan(goal, "the goal fan")
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
  tried = 0
  for _ in range(depth):
    nxt = []
    for cur, path in frontier:
      for tau in sorted(cur.all_cones, key=_order_key):
        if tau.dim < 2:
          continue
        tried += 1
        if tried > MAX_SEARCH_STARS:
          raise ValueError("refinement search capped at %d star subdivisions"
                           % MAX_SEARCH_STARS)
        cand = star_subdivision(cur, tau)
        if cand in seen:
          continue
        seen.add(cand)
        if refines(cand):
          return path + [tau]
        nxt.append((cand, path + [tau]))
    frontier = nxt
  return None
