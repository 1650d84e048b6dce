"""Worked fixture gallery: a catalogue of explicit fans, covers, subdivisions
and groupings that the library re-verifies mechanically.

Each case builds its fixtures from scratch, runs a list of named checks, and
reports the first failure with the offending cones.  Every case also accepts
``mutate=True``, which applies one documented small corruption; a healthy
verifier must flip at least one check to false on the mutated fixtures.  The
mutations are described in the individual builder docstrings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cone import Cone, _neg, intersect
from .fan import (
    Fan,
    FanMap,
    _cones_at,
    fiber_product,
    is_fan_map,
    product_fan,
    star_subdivision,
    subdivision_predicates,
    support_query,
    validate,
)
from .lattice import IntMatrix
from .logpair import make_pair


@dataclass(frozen=True)
class CaseCheck:
  name: str
  ok: bool
  detail: str = ""


@dataclass
class GalleryCase:
  """A named bundle of fixtures plus the checks run against them."""

  name: str
  fixtures: dict
  checks: list = field(default_factory=list)

  @property
  def ok(self) -> bool:
    return all(c.ok for c in self.checks)

  @property
  def first_failure(self) -> CaseCheck | None:
    for c in self.checks:
      if not c.ok:
        return c
    return None

  def add(self, name: str, ok: bool, detail: str = ""):
    self.checks.append(CaseCheck(name, bool(ok), detail))

  def report_lines(self) -> list:
    lines = ["[%s] %s" % ("ok" if self.ok else "FAIL", self.name)]
    for c in self.checks:
      mark = "pass" if c.ok else "FAIL"
      suffix = (" -- " + c.detail) if (c.detail and not c.ok) else ""
      lines.append("  %s: %s%s" % (mark, c.name, suffix))
    return lines


def _e(i: int, n: int) -> tuple:
  return tuple(1 if j == i else 0 for j in range(n))


def _sum_of(vectors, n) -> tuple:
  return tuple(sum(v[i] for v in vectors) for i in range(n))


def _fan_union(f1: Fan, f2: Fan) -> Fan:
  return Fan.make(list(f1.max_cones) + list(f2.max_cones), f1.ambient_rank)


def _fan_intersection(f1: Fan, f2: Fan) -> Fan:
  pieces = [intersect(c, d) for c in f1.max_cones for d in f2.max_cones]
  return Fan.make(pieces, f1.ambient_rank)


def _check_listed_subfan(case: GalleryCase, label: str, fan: Fan, listed: Fan):
  """The boundary subfan derived from the listed subfan's rays must give the
  listed subfan back."""
  try:
    pair = make_pair(fan, listed.rays)
  except ValueError as err:
    case.add("boundary subfan of %s matches the listed one" % label,
             False, str(err))
    return
  got = pair.boundary_subfan
  case.add("boundary subfan of %s matches the listed one" % label,
           got == listed,
           "derived %s, listed %s" % ([c.rays for c in got.max_cones],
                                      [c.rays for c in listed.max_cones]))


def _is_subdivision(src: Fan, dst: Fan) -> bool:
  m = IntMatrix.identity(src.ambient_rank)
  try:
    return subdivision_predicates(m, src, dst).is_subdivision
  except ValueError:
    return False


def _record_subdivision(case: GalleryCase, src: Fan, dst: Fan):
  case.fixtures.setdefault("subdivisions", []).append(
      (IntMatrix.identity(src.ambient_rank), src, dst))


def case_rank2_covers(mutate: bool = False) -> GalleryCase:
  """Five rays in the plane, eleven fans built from them, and the cover,
  intersection, subdivision and boundary-subfan identities tying them
  together.

  Mutation: drop the horizontal ray from the two-ray fan f7, which breaks
  the two intersection identities that name it.
  """
  def c2(*rays):
    return Cone.from_rays([list(r) for r in rays], 2)

  s1 = c2((1, 0), (1, 1))
  s2 = c2((1, 1), (0, 1))
  s3 = c2((0, 1), (-1, 0))
  s4 = c2((-1, 0), (0, -1))
  s5 = c2((0, -1), (1, 0))
  quad = c2((1, 0), (0, 1))
  upper = c2((1, 1), (-1, 0))
  ray = lambda v: Cone.from_rays([list(v)], 2)

  def mk(*cones):
    return Fan.make(list(cones), 2)

  f = {
      1: mk(quad, s3, s4, s5),
      2: mk(s1, s2, s3, s4, s5),
      3: mk(s1, upper, s4, s5),
      4: mk(quad),
      5: mk(s1, s2),
      6: mk(s3, s4, s5),
      7: mk(ray((0, 1))) if mutate else mk(ray((0, 1)), ray((1, 0))),
      8: mk(s2, s3),
      9: mk(upper),
      10: mk(s1, s4, s5),
      11: mk(ray((1, 1)), ray((-1, 0))),
  }
  listed_subfans = {
      1: mk(s3, s4),
      2: mk(s2, s3, s4),
      3: mk(upper, s4),
      4: mk(ray((0, 1))),
      5: mk(s2),
      6: mk(s3, s4),
      7: mk(ray((0, 1))),
      8: mk(s2, s3),
      9: mk(upper),
      10: mk(ray((1, 1)), s4),
      11: mk(ray((1, 1)), ray((-1, 0))),
  }

  case = GalleryCase("rank2-covers", {"fans": f, "subfans": listed_subfans})
  for i in sorted(f):
    rep = validate(f[i])
    case.add("f%d is a valid fan" % i, rep.ok, str(rep.violations))

  covers = [(1, 4, 6, 7), (2, 5, 6, 7), (2, 8, 10, 11), (3, 9, 10, 11)]
  for whole, left, right, common in covers:
    case.add("f%d = f%d | f%d" % (whole, left, right),
             _fan_union(f[left], f[right]) == f[whole])
    got = _fan_intersection(f[left], f[right])
    case.add("f%d & f%d = f%d" % (left, right, common),
             got == f[common],
             "got %s" % [c.rays for c in got.max_cones])

  for coarse in (1, 3):
    case.add("f2 subdivides f%d" % coarse, _is_subdivision(f[2], f[coarse]))
    _record_subdivision(case, f[2], f[coarse])

  for i in sorted(listed_subfans):
    _check_listed_subfan(case, "f%d" % i, f[i], listed_subfans[i])
  return case


def case_projective_common_subdivision(n: int, mutate: bool = False) -> GalleryCase:
  """Two complete smooth fans in rank n with a common star-subdivision
  refinement, reached from one side by two star subdivisions and from the
  other by one.

  Mutation: flip the sign of the first ray of the orthant cone in the
  second fan, so the one-step route no longer lands on the refinement.
  """
  if not 2 <= n <= 4:
    raise ValueError("rank must be between 2 and 4")
  e = [_e(i, n) for i in range(n)]
  minus_all = _neg(_sum_of(e, n))
  m = _neg(_sum_of(e[:n - 1], n))

  def cone(*rays):
    return Cone.from_rays([list(r) for r in rays], n)

  orthant = cone(*e)
  proj_cones = [orthant]
  proj_cones += [cone(*(e[:i] + e[i + 1:] + [minus_all]))
                 for i in range(n - 1)]
  tau = cone(*(e[:n - 1] + [minus_all]))
  proj_cones.append(tau)
  f1 = Fan.make(proj_cones, n)

  first_cone = cone(_neg(e[0]), *e[1:]) if mutate else orthant
  second_cones = [first_cone, cone(*(e[:n - 1] + [_neg(e[n - 1])]))]
  second_cones += [cone(*(e[:i] + e[i + 1:] + [m])) for i in range(n - 1)]
  second_cones += [cone(*(e[:i] + e[i + 1:n - 1] + [_neg(e[n - 1]), m]))
                   for i in range(n - 1)]
  f2 = Fan.make(second_cones, n)

  tau_prime = cone(e[n - 1], minus_all)
  tau_second = cone(_neg(e[n - 1]), m)
  f3 = star_subdivision(star_subdivision(f1, tau_prime), tau)

  case = GalleryCase("projective-subdivision-n%d" % n,
                     {"fans": {"f1": f1, "f2": f2, "f3": f3}})
  for label, fan in case.fixtures["fans"].items():
    rep = validate(fan)
    case.add("%s is a valid fan" % label, rep.ok, str(rep.violations))

  case.add("one star subdivision of f2 reaches f3",
           star_subdivision(f2, tau_second) == f3,
           "star center %s" % (tuple(tau_second.rays),))
  for label, fan in (("f1", f1), ("f2", f2), ("f3", f3)):
    case.add("%s is complete" % label, support_query(fan).is_complete)
  case.add("f3 subdivides f1", _is_subdivision(f3, f1))
  case.add("f3 subdivides f2", _is_subdivision(f3, f2))
  _record_subdivision(case, f3, f1)
  _record_subdivision(case, f3, f2)
  if n == 2:
    line = Fan.make([Cone.from_rays([[1]], 1), Cone.from_rays([[-1]], 1)], 1)
    case.add("f2 is the product of two complete lines",
             f2 == product_fan(line, line))

  listed = {
      "f1": Fan.make([cone(minus_all)], n),
      "f2": Fan.make([tau_second], n),
      "f3": Fan.make([cone(minus_all, m), cone(minus_all, _neg(e[n - 1]))], n),
  }
  case.fixtures["subfans"] = listed
  for label, sub in listed.items():
    _check_listed_subfan(case, label, case.fixtures["fans"][label], sub)
  return case


def case_iterated_star_covers(p: int, mutate: bool = False) -> GalleryCase:
  """Rank-p fans around a fixed codimension-one cone: two two-cone fans,
  their star subdivisions, and the cover identities expressing the starred
  fans through a common complement fan.

  Mutation: remove one ray from the first complement cone of f7, which
  breaks both cover identities.
  """
  if not 2 <= p <= 4:
    raise ValueError("rank must be between 2 and 4")
  e = [_e(i, p) for i in range(p)]
  minus_all = _neg(_sum_of(e, p))
  minus_last = _neg(e[p - 1])

  def cone(*rays):
    return Cone.from_rays([list(r) for r in rays], p)

  tau = cone(*e[:p - 1])
  s1 = cone(*(e[:p - 1] + [_sum_of(e, p)]))
  s2 = cone(*(e[:p - 1] + [minus_last]))
  s3 = cone(*(e[:p - 1] + [minus_all]))
  f1 = Fan.make([s1, s2], p)
  f2 = Fan.make([s1, s3], p)
  f3 = star_subdivision(f2, s3)
  f4 = star_subdivision(f1, tau)
  f5 = star_subdivision(f2, tau)
  f6 = star_subdivision(f3, tau)
  etas = [cone(*(e[:i] + e[i + 1:p - 1] + [minus_last, minus_all]))
          for i in range(p - 1)]
  if mutate:
    etas[0] = cone(*etas[0].rays[1:])
  f7 = Fan.make(etas, p)

  fans = {"f%d" % i: fan for i, fan in
          enumerate((f1, f2, f3, f4, f5, f6, f7), start=1)}
  case = GalleryCase("iterated-star-p%d" % p, {"fans": fans})
  for label in sorted(fans):
    rep = validate(fans[label])
    case.add("%s is a valid fan" % label, rep.ok, str(rep.violations))

  for src, dst, center in ((f3, f2, s3), (f4, f1, tau), (f5, f2, tau),
                           (f6, f3, tau)):
    case.add("star at %s is a subdivision" % (tuple(center.rays),),
             _is_subdivision(src, dst))
    _record_subdivision(case, src, dst)
  case.add("f3 = f1 | f7", _fan_union(f1, f7) == f3,
           "union %s" % [c.rays for c in _fan_union(f1, f7).max_cones])
  case.add("f6 = f4 | f7", _fan_union(f4, f7) == f6,
           "union %s" % [c.rays for c in _fan_union(f4, f7).max_cones])

  center = _sum_of(e[:p - 1], p)
  listed = {
      "f1": Fan.make([cone(minus_last)], p),
      "f2": Fan.make([cone(minus_all)], p),
      "f3": Fan.make([cone(minus_last, minus_all)], p),
      "f4": Fan.make([cone(center, minus_last)], p),
      "f5": Fan.make([cone(center, minus_all)], p),
      "f6": Fan.make([cone(center, minus_last), cone(minus_last, minus_all)], p),
      "f7": Fan.make([cone(minus_last, minus_all)], p),
  }
  case.fixtures["subfans"] = listed
  for label in sorted(listed):
    _check_listed_subfan(case, label, fans[label], listed[label])
  return case


# Canonical full-dimensional block-min labels.  The first component
# constrains the first distinguished coordinate, the second the second,
# the third the third; 0 means no constraint.
_CONCISE = frozenset(
    [(p, q, r) for p in (0, 1) for q in (0, 2) for r in (0, 3, 5, 6)]
    + [(p, q, r) for p in (0, 1) for q in (4, 5, 6) for r in (0, 3)]
    + [(p, 4, 5) for p in (0, 1)]
    + [(p, q, r) for p in (4, 6) for q in (0, 2) for r in (0, 3)]
    + [(4, q, 6) for q in (0, 2)] + [(6, q, 5) for q in (0, 2)]
    + [(4, q, 5) for q in (0, 2)]
    + [(4, 5, r) for r in (0, 3)])

# Full-dimensional labels absent from the canonical list; each describes
# the same cone as its canonical reduction (dropping an inequality made
# redundant by chaining through the middle block).
_DUPLICATE_LABELS = {
    (0, 4, 6): (0, 4, 5),
    (1, 4, 6): (1, 4, 5),
    (6, 5, 0): (4, 5, 0),
    (6, 5, 3): (4, 5, 3),
}


def is_concise(label: tuple) -> bool:
  return tuple(label) in _CONCISE


def is_standard(label: tuple) -> bool:
  return is_concise(label) and not {4, 5} <= set(label)


def _admissible_subsets():
  out = []
  for bits in range(64):
    I = frozenset(i + 1 for i in range(6) if bits >> i & 1)
    if I & {4, 5, 6} != {4, 5}:
      out.append(I)
  return sorted(out, key=lambda s: (len(s), sorted(s)))


def case_blockwise_min(p1: int, p2: int, p3: int,
                       mutate: bool = False) -> GalleryCase:
  """Subdivisions of the orthant by blockwise minima.

  Coordinates split into three blocks; for each of six block unions there
  is a fan whose maximal cones fix which coordinate attains the minimum
  over that union.  The case checks that the min-cones are full-dimensional
  exactly at canonical labels, that every chamber of every admissible
  common refinement carries a concise label (chambers that order a chain
  of nested unions carry no standard label, and arise exactly when the
  refinement couples the whole union with an overlapping pair), that
  standard chambers match their closed-form generator lists, and that
  adjoining one more block to the refinement is a single star subdivision
  at the cone holding that block's sum vector in its relative interior.

  Mutation: when adjoining block 2, locate the star center with the block
  sum shifted by the first basis vector, which points the star at the
  wrong cone.
  """
  if p1 + p2 + p3 > 4:
    raise ValueError("size bound exceeded: p1+p2+p3 must be at most 4")
  if min(p1, p2, p3) < 1:
    raise ValueError("block sizes must be positive")
  n = p1 + p2 + p3
  blocks = {
      1: list(range(p1)),
      2: list(range(p1, p1 + p2)),
      3: list(range(p1 + p2, n)),
  }
  blocks[4] = blocks[1] + blocks[2]
  blocks[5] = blocks[2] + blocks[3]
  blocks[6] = blocks[1] + blocks[2] + blocks[3]
  f_vec = {t: _sum_of([_e(i, n) for i in blocks[t]], n) for t in blocks}

  def min_cone(reps: tuple, supers: tuple) -> Cone:
    ineqs = [list(_e(i, n)) for i in range(n)]
    for idx, t in zip(reps, supers):
      if t:
        for i in blocks[t]:
          row = [0] * n
          row[i] += 1
          row[idx] -= 1
          ineqs.append(row)
    return Cone.from_inequalities(ineqs, [], n)

  def closed_form(reps: tuple, supers: tuple) -> Cone:
    u, v, w = reps
    gens = [list(_e(i, n)) for i in range(n) if i not in (u, v, w)]
    for idx, t in zip(reps, supers):
      gens.append(list(f_vec[t]) if t else list(_e(idx, n)))
    return Cone.from_rays(gens, n)

  orthant_fan = Fan.make([Cone.from_rays([list(_e(i, n)) for i in range(n)],
                                         n)], n)
  block_fans = {t: star_subdivision(
      orthant_fan, Cone.from_rays([list(_e(i, n)) for i in blocks[t]], n))
      for t in range(1, 7)}

  ident = IntMatrix.identity(n)
  # one map per block fan, shared by every fiber product that adjoins it
  block_maps = {t: FanMap(ident, f, orthant_fan) for t, f in block_fans.items()}
  sigma_cache: dict = {frozenset(): orthant_fan}

  def sigma_for(I: frozenset) -> Fan:
    if I not in sigma_cache:
      last = max(I)
      prev = sigma_for(I - {last})
      sigma_cache[I] = fiber_product(FanMap(ident, prev, orthant_fan),
                                     block_maps[last])
    return sigma_cache[I]

  admissible = _admissible_subsets()
  case = GalleryCase("blockwise-min-%d-%d-%d" % (p1, p2, p3),
                     {"fans": {"base": orthant_fan},
                      "block_fans": block_fans,
                      "refinements": {}})

  reps_choices = list(itertools.product(blocks[1], blocks[2], blocks[3]))
  labels = list(itertools.product((0, 1, 4, 6), (0, 2, 4, 5, 6), (0, 3, 5, 6)))

  bad_dim = []
  for label in labels:
    for reps in reps_choices:
      full = min_cone(reps, label).dim == n
      canonical = _DUPLICATE_LABELS.get(label, label)
      if full != is_concise(canonical):
        bad_dim.append((reps, label))
  case.add("chambers are full-dimensional exactly at canonical labels",
           not bad_dim, "mismatches %s" % bad_dim[:4])
  dup_ok = all(
      min_cone(reps, lab) == min_cone(reps, red) and min_cone(reps, lab).dim == n
      for lab, red in _DUPLICATE_LABELS.items() for reps in reps_choices)
  case.add("the four duplicate labels describe their canonical cones", dup_ok)

  concise_cones = {}
  standard_cones = {}
  for label in labels:
    if is_concise(label):
      for reps in reps_choices:
        cone = min_cone(reps, label)
        concise_cones[cone] = (reps, label)
        if is_standard(label):
          standard_cones[cone] = (reps, label)
  closed_ok = all(closed_form(reps, label) == cone
                  for cone, (reps, label) in standard_cones.items())
  case.add("closed-form generators reproduce every standard chamber",
           closed_ok)

  unlabeled = []
  chain_refinements = set()
  for I in admissible:
    fan = sigma_for(I)
    case.fixtures["refinements"][I] = fan
    for c in fan.max_cones:
      if c not in concise_cones:
        unlabeled.append((sorted(I), c.rays))
      elif c not in standard_cones:
        chain_refinements.add(I)
  case.add("every chamber of every admissible refinement has a concise label",
           not unlabeled, "offenders %s" % unlabeled[:2])
  expected_chains = {I for I in admissible if {4, 6} <= I or {5, 6} <= I}
  case.add("non-standard chambers appear exactly in chain refinements",
           chain_refinements == expected_chains,
           "got %d refinements, expected %d" % (len(chain_refinements),
                                                len(expected_chains)))

  star_bad = []
  for I in admissible:
    fan = sigma_for(I)
    for s in range(1, 7):
      if s in I or (I | {s}) & {4, 5, 6} == {4, 5}:
        continue
      probe = list(f_vec[s])
      if mutate and s == 2:
        probe = [probe[0] + 1] + probe[1:]
      tau = _cones_at(fan, probe)[0]
      if star_subdivision(fan, tau) != sigma_for(frozenset(I | {s})):
        star_bad.append((sorted(I), s))
  case.add("adjoining a block is one star subdivision at its sum vector",
           not star_bad, "failing pairs %s" % star_bad[:4])

  for I in admissible:
    if len(I) <= 2:
      _record_subdivision(case, sigma_for(I), orthant_fan)
  return case


_GROUP_DISPLAY = [
    [""],
    ["1", "14", "16", "146"],
    ["2", "24", "25", "26", "246", "256", "2456"],
    ["3", "35", "36", "356"],
    ["4", "46"],
    ["5", "56"],
    ["6"],
    ["12", "124", "125", "126", "1246", "1256", "12456"],
    ["13", "134", "135", "136", "1346", "1356", "13456"],
    ["23", "234", "235", "236", "2346", "2356", "23456"],
    ["15", "156", "1456"],
    ["34", "346", "3456"],
    ["123", "1234", "1235", "1236", "12346", "12356", "123456"],
    ["456"],
]


def case_zero_block_groups(mutate: bool = False) -> GalleryCase:
  """Grouping of the admissible index sets by their zero-block normal form.

  Each of the six indices removes the locus where a fixed block of
  coordinates vanishes; two index sets remove the same locus exactly when
  the inclusion-minimal antichains of their blocks agree.  The 56
  admissible sets fall into 14 groups with fixed member lists.

  Mutation: shrink the fifth block from {2,3} to {3}, which merges two
  groups and changes the count.
  """
  zero_blocks = {1: {1}, 2: {2}, 3: {3}, 4: {1, 2},
                 5: {3} if mutate else {2, 3}, 6: {1, 2, 3}}

  def normal_form(I: frozenset) -> frozenset:
    chosen = {frozenset(zero_blocks[i]) for i in I}
    return frozenset(b for b in chosen if not any(o < b for o in chosen))

  groups: dict = {}
  for I in _admissible_subsets():
    groups.setdefault(normal_form(I), []).append(
        "".join(str(i) for i in sorted(I)))

  case = GalleryCase("zero-block-groups", {"groups": groups})
  case.add("admissible index sets number 56", len(_admissible_subsets()) == 56)
  case.add("normal forms split them into 14 groups", len(groups) == 14,
           "got %d" % len(groups))
  got_members = sorted(sorted(v) for v in groups.values())
  want_members = sorted(sorted(g) for g in _GROUP_DISPLAY)
  case.add("group member lists match the display", got_members == want_members,
           "got %s" % got_members)
  case.add("a contained block absorbs its superset",
           normal_form(frozenset({1})) == normal_form(frozenset({1, 4})))
  case.add("incomparable singletons stay distinct",
           normal_form(frozenset({4})) != normal_form(frozenset({5})))
  return case


def case_blowup_projection(n: int, mutate: bool = False) -> GalleryCase:
  """The blown-up projective fan in rank n projecting onto the rank n-1
  projective fan by differences against the last coordinate.

  Mutation: flip the sign of the last matrix column, after which the map
  stops being a map of fans.
  """
  if not 2 <= n <= 4:
    raise ValueError("rank must be between 2 and 4")
  e = [_e(i, n) for i in range(n)]
  total = _sum_of(e, n)

  def cone(*rays):
    return Cone.from_rays([list(r) for r in rays], n)

  sigma = [cone(*(e[:i] + e[i + 1:] + [total])) for i in range(n)]
  sigma_p = [cone(*(e[:i] + e[i + 1:] + [_neg(total)])) for i in range(n)]
  blowup = Fan.make(sigma + sigma_p, n)
  proj = Fan.make([cone(*e)] + sigma_p, n)

  d = n - 1
  eprev = [_e(i, d) for i in range(d)]
  mprev = _neg(_sum_of(eprev, d))

  def tcone(*rays):
    return Cone.from_rays([list(r) for r in rays], d)

  targets = [tcone(*(eprev[:i] + eprev[i + 1:] + [mprev])) for i in range(d)]
  targets.append(tcone(*eprev))
  target_fan = Fan.make(targets, d)

  last = 1 if mutate else -1
  phi = IntMatrix.from_rows([[1 if j == i else (last if j == n - 1 else 0)
                              for j in range(n)] for i in range(d)])

  case = GalleryCase("blowup-projection-n%d" % n,
                     {"fans": {"source": blowup, "target": target_fan,
                               "projective": proj},
                      "maps": {"phi": phi}})
  for label, fan in case.fixtures["fans"].items():
    rep = validate(fan)
    case.add("%s is a valid fan" % label, rep.ok, str(rep.violations))

  case.add("source is the star subdivision of the projective fan",
           blowup == star_subdivision(proj, cone(*e)))
  _record_subdivision(case, blowup, proj)
  case.add("the difference matrix is a fan map",
           is_fan_map(phi, blowup, target_fan))
  for i in range(n):
    img = Cone.from_rays([list(phi.apply(r)) for r in sigma[i].rays], d)
    img_p = Cone.from_rays([list(phi.apply(r)) for r in sigma_p[i].rays], d)
    want = targets[i] if i < d else targets[d]
    case.add("cone pair %d lands in its target" % (i + 1),
             want.contains_cone(img) and want.contains_cone(img_p),
             "images %s and %s" % (img.rays, img_p.rays))
    joint = Cone.from_rays([list(r) for r in img.rays + img_p.rays], d)
    case.add("cone pair %d fills its target" % (i + 1), joint == want)
  return case


CASES = {
    "rank2-covers": case_rank2_covers,
    "projective-subdivision-n2":
        lambda mutate=False: case_projective_common_subdivision(2, mutate),
    "projective-subdivision-n3":
        lambda mutate=False: case_projective_common_subdivision(3, mutate),
    "iterated-star-p2": lambda mutate=False: case_iterated_star_covers(2, mutate),
    "iterated-star-p3": lambda mutate=False: case_iterated_star_covers(3, mutate),
    "blockwise-min-1-1-1":
        lambda mutate=False: case_blockwise_min(1, 1, 1, mutate),
    "zero-block-groups": case_zero_block_groups,
    "blowup-projection-n2":
        lambda mutate=False: case_blowup_projection(2, mutate),
    "blowup-projection-n3":
        lambda mutate=False: case_blowup_projection(3, mutate),
}


def run_gallery(names: list | None = None, mutate: str | None = None) -> list:
  """Run the named cases (all by default) in name order.

  mutate, when given, must be a case name; that case runs on its mutated
  fixtures instead of the pristine ones.
  """
  selected = sorted(CASES) if names is None else list(names)
  out = []
  for name in selected:
    if name not in CASES:
      raise KeyError("unknown gallery case %r" % name)
    out.append(CASES[name](mutate=(name == mutate)))
  return out
