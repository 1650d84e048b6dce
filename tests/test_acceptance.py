"""Acceptance gate: the thirteen primary criteria, one test and one
pass/fail line each, every one with its stated runtime budget.

Each test prints "criterion NN: PASS/FAIL (elapsed / budget)" so a plain
run with -s reads as a checklist.  The checks are exact; no tolerances.
"""

import contextlib
import io
import itertools
import math
import pathlib
import random
import time

import pytest

from logfan.cli import execute, parse_document, serialize_document
from logfan.cone import Cone, hilbert_basis, is_smooth
from logfan.fan import (
    Fan,
    complete_2d,
    resolve_2d,
    star_subdivision,
    subdivision_predicates,
    support_query,
)
from logfan.gallery import (
    _DUPLICATE_LABELS,
    CASES,
    case_blockwise_min,
    case_blowup_projection,
    case_iterated_star_covers,
    case_projective_common_subdivision,
    case_rank2_covers,
    case_zero_block_groups,
    is_concise,
    run_gallery,
)
from logfan.kato import CharParam, chart_smoothness
from logfan.lattice import IntMatrix, express_in_rows
from logfan.logpair import (
    admissible_blowup,
    boundary_strata_counts,
    make_pair,
    product,
)
from logfan.monoid import (
    AffineMonoid,
    MonoidHom,
    _gp_basis,
    membership,
    saturation,
)
from resolution_reference import insert_ray_2d

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, elapsed: float, budget: float, note: str = ""):
  line = ("criterion %02d: %s (%.2fs / %gs budget)%s"
          % (num, "PASS" if ok else "FAIL", elapsed, budget,
             (" " + note) if note else ""))
  print(line)
  assert ok, line
  assert elapsed < budget, line


def _failures(case) -> str:
  return "; ".join(c.name for c in case.checks if not c.ok)


def test_criterion_01_full_dimensional_labels_match_the_table():
  t0 = time.time()
  n = 3
  blocks = {1: [0], 2: [1], 3: [2], 4: [0, 1], 5: [1, 2], 6: [0, 1, 2]}
  reps = (0, 1, 2)

  def min_cone(label):
    ineqs = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    for idx, t in zip(reps, label):
      if t:
        for i in blocks[t]:
          row = [0] * n
          row[i] += 1
          row[idx] -= 1
          ineqs.append(row)
    return Cone.from_inequalities(ineqs, [], n)

  labels = list(itertools.product((0, 1, 4, 6), (0, 2, 4, 5, 6),
                                  (0, 3, 5, 6)))
  listed = all((min_cone(lab).dim == n)
               == (is_concise(lab) or lab in _DUPLICATE_LABELS)
               for lab in labels)
  collapsed = all(min_cone(lab) == min_cone(red)
                  for lab, red in _DUPLICATE_LABELS.items())
  report(1, listed and collapsed, time.time() - t0, 10,
         "%d labels, %d listed, %d collapse onto listed ones"
         % (len(labels), sum(map(is_concise, labels)),
            len(_DUPLICATE_LABELS)))


def test_criterion_02_adjoining_a_block_is_one_star_subdivision():
  t0 = time.time()
  notes = []
  ok = True
  for sizes in ((1, 1, 1), (2, 1, 1)):
    case = case_blockwise_min(*sizes)
    star = next(c for c in case.checks if c.name.startswith("adjoining"))
    ok = ok and star.ok and case.ok
    notes.append("%s %s" % (sizes, "ok" if case.ok else _failures(case)))
  report(2, ok, time.time() - t0, 60, "; ".join(notes))


def test_criterion_03_zero_block_grouping_member_for_member():
  t0 = time.time()
  case = case_zero_block_groups()
  names = ("admissible index sets number 56",
           "normal forms split them into 14 groups",
           "group member lists match the display")
  ok = all(c.ok for c in case.checks if c.name in names)
  report(3, ok, time.time() - t0, 1, _failures(case))


def test_criterion_04_projective_common_subdivision():
  t0 = time.time()
  ok = True
  for rank in (2, 3):
    case = case_projective_common_subdivision(rank)
    ok = ok and case.ok
  report(4, ok, time.time() - t0, 10)


def test_criterion_05_cover_and_star_identities():
  t0 = time.time()
  ok = case_rank2_covers().ok
  for rank in (2, 3):
    ok = ok and case_iterated_star_covers(rank).ok
  report(5, ok, time.time() - t0, 10)


def test_criterion_06_blowup_projection_fan_map():
  t0 = time.time()
  ok = all(case_blowup_projection(rank).ok for rank in (2, 3))
  report(6, ok, time.time() - t0, 5)


def _brute_minimal_generators(cone: Cone) -> set:
  rays = cone.rays
  if len(rays) == 1:
    return {rays[0]}
  top = tuple(a + b for a, b in zip(rays[0], rays[1]))
  zonotope = []
  for x in range(-14, 15):
    for y in range(-14, 15):
      v = (x, y)
      if v != (0, 0) and cone.contains(v):
        rest = (top[0] - x, top[1] - y)
        if cone.contains(rest):
          zonotope.append(v)
  out = set()
  for s in zonotope:
    reducible = False
    for a in zonotope:
      d = (s[0] - a[0], s[1] - a[1])
      if d != (0, 0) and cone.contains(d):
        reducible = True
        break
    if not reducible:
      out.add(s)
  return out


def test_criterion_07_hilbert_basis_matches_brute_force():
  t0 = time.time()
  rng = random.Random(20260821)
  done = 0
  ok = True
  while done < 50:
    a = (rng.randint(-7, 7), rng.randint(-7, 7))
    b = (rng.randint(-7, 7), rng.randint(-7, 7))
    if a == (0, 0) or b == (0, 0):
      continue
    cone = Cone.from_rays([list(a), list(b)], 2)
    if not cone.is_strictly_convex:
      continue
    done += 1
    if set(hilbert_basis(cone)) != _brute_minimal_generators(cone):
      ok = False
      break
  report(7, ok, time.time() - t0, 30, "%d cones" % done)


def _same_monoid(a: AffineMonoid, b: AffineMonoid) -> bool:
  return (all(membership(b, g) for g in a.gens)
          and all(membership(a, g) for g in b.gens))


def test_criterion_08_saturation_examples_and_oracle():
  t0 = time.time()
  pinned = saturation(AffineMonoid.make([(1, 0), (1, 1), (1, 3)], 2))
  ok = _same_monoid(pinned,
                    AffineMonoid.make([(1, 0), (1, 1), (1, 2), (1, 3)], 2))

  rng = random.Random(1729)
  count = 0
  while ok and count < 100:
    gens = [(rng.randint(0, 4), rng.randint(0, 4))
            for _ in range(rng.randint(2, 4))]
    if not any(any(g) for g in gens):
      continue
    count += 1
    P = AffineMonoid.make(gens, 2)
    S = saturation(P)
    if not all(membership(S, g) for g in P.gens):
      ok = False
      break
    if not _same_monoid(saturation(S), S):
      ok = False
      break
    basis = [list(b) for b in _gp_basis(P)]
    for _ in range(10):
      v = (rng.randint(0, 6), rng.randint(0, 6))
      # the saturation lives inside the group completion, so the scaling
      # oracle only applies to group elements
      in_group = express_in_rows(basis, list(v)) is not None
      scaled = [(n * v[0], n * v[1]) for n in range(1, 61)]
      bounded_hit = any(membership(P, w) for w in scaled[:8])
      in_sat = membership(S, v)
      if bounded_hit and in_group and not in_sat:
        ok = False
        break
      if in_sat and not (in_group and any(membership(P, w) for w in scaled)):
        ok = False
        break
    else:
      continue
    break
  report(8, ok, time.time() - t0, 30, "%d monoids" % count)


def test_criterion_09_multiplication_charts_and_characteristic():
  t0 = time.time()
  line = AffineMonoid.make([(1,)], 1)
  ok = True
  for p in (0, 2, 3, 5, 7):
    char = CharParam(p)
    for n in range(1, 31):
      hom = MonoidHom(line, line, IntMatrix.from_rows([[n]]))
      etale = chart_smoothness(hom, char).log_etale
      if etale != (p == 0 or n % p != 0):
        ok = False
  report(9, ok, time.time() - t0, 1, "150 chart/characteristic pairs")


def _exact_subdivision(matrix: IntMatrix, src: Fan, dst: Fan) -> bool:
  try:
    return subdivision_predicates(matrix, src, dst).is_subdivision
  except ValueError:
    return False


def _sampled_subdivision(src: Fan, dst: Fan, seed: int) -> bool:
  rng = random.Random(seed)
  n = src.ambient_rank
  in_src = support_query(src).contains
  in_dst = support_query(dst).contains
  for _ in range(500):
    v = tuple(rng.randint(-9, 9) for _ in range(n))
    if in_src(v) != in_dst(v):
      return False
  per_cone = max(1, 500 // max(1, len(src.max_cones)))
  for cone in src.max_cones:
    homes = None
    for _ in range(per_cone):
      coeffs = [rng.randint(1, 5) for _ in cone.rays]
      v = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                for i in range(n))
      containing = frozenset(i for i, d in enumerate(dst.max_cones)
                             if d.contains(v))
      homes = containing if homes is None else homes & containing
      if not homes:
        return False
  return True


def test_criterion_10_subdivision_predicate_agrees_with_sampling():
  t0 = time.time()
  pairs = []
  for case in run_gallery():
    for matrix, src, dst in case.fixtures.get("subdivisions", []):
      pairs.append((src, dst, True))
      if src != dst:
        pairs.append((dst, src, False))
  ok = bool(pairs)
  for seed, (src, dst, expected) in enumerate(pairs):
    exact = _exact_subdivision(IntMatrix.identity(src.ambient_rank), src, dst)
    sampled = _sampled_subdivision(src, dst, seed)
    if exact != expected or sampled != exact:
      ok = False
      break
  report(10, ok, time.time() - t0, 30, "%d fan pairs" % len(pairs))


def test_criterion_11_resolution_of_random_singular_fans():
  t0 = time.time()
  rng = random.Random(97)
  done = 0
  ok = True
  while ok and done < 50:
    rays = set()
    while len(rays) < 4:
      v = (rng.randint(-9, 9), rng.randint(-9, 9))
      if v == (0, 0):
        continue
      g = math.gcd(abs(v[0]), abs(v[1]))
      rays.add((v[0] // g, v[1] // g))
    ordered = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    seed_cones = [Cone.from_rays([list(ordered[0]), list(ordered[1])], 2),
                  Cone.from_rays([list(ordered[2]), list(ordered[3])], 2)]
    if any(not c.is_strictly_convex for c in seed_cones):
      continue
    fan = Fan.make(seed_cones, 2)
    if len(fan.max_cones) != 2:
      continue
    if done % 2 == 0:
      try:
        fan = complete_2d(fan)
      except ValueError:
        continue
    if all(is_smooth(c) for c in fan.max_cones):
      continue
    done += 1
    resolved, steps = resolve_2d(fan)
    if not all(is_smooth(c) for c in resolved.max_cones):
      ok = False
      break
    ident = IntMatrix.identity(2)
    if not subdivision_predicates(ident, resolved, fan).is_subdivision:
      ok = False
      break
    cur = fan
    for ray in steps:
      nxt = insert_ray_2d(cur, ray)
      if not subdivision_predicates(ident, nxt, cur).is_subdivision:
        ok = False
        break
      if set(nxt.rays) != set(cur.rays) | {ray}:
        ok = False
        break
      cur = nxt
    if cur != resolved:
      ok = False
  report(11, ok, time.time() - t0, 30, "%d fans" % done)


def _convolves(pair_a, pair_b) -> bool:
  prod = product(pair_a, pair_b)
  got = boundary_strata_counts(prod)
  ca = [1] + boundary_strata_counts(pair_a)
  cb = [1] + boundary_strata_counts(pair_b)
  want = [sum(ca[i] * cb[a - i] for i in range(a + 1)
              if i < len(ca) and a - i < len(cb))
          for a in range(1, len(got) + 1)]
  return got == want


def test_criterion_12_boundary_strata_counts():
  t0 = time.time()
  quad = Fan.make([Cone.from_rays([[1, 0], [0, 1]], 2),
                   Cone.from_rays([[0, 1], [-1, 0]], 2),
                   Cone.from_rays([[-1, 0], [0, -1]], 2),
                   Cone.from_rays([[0, -1], [1, 0]], 2)], 2)
  box = make_pair(quad, [(-1, 0), (0, -1)])
  ok = boundary_strata_counts(box) == [2, 1]

  proj = Fan.make([Cone.from_rays([[1, 0], [0, 1]], 2),
                   Cone.from_rays([[0, 1], [-1, -1]], 2),
                   Cone.from_rays([[-1, -1], [1, 0]], 2)], 2)
  ok = ok and boundary_strata_counts(make_pair(proj, [(1, 0)])) == [1, 0]

  corner = Cone.from_rays([[-1, 0], [0, -1]], 2)
  blown = admissible_blowup(box, corner)
  ok = ok and boundary_strata_counts(blown) == [3, 2]

  pairs = [box]
  for case in run_gallery():
    fans = case.fixtures.get("fans")
    subfans = case.fixtures.get("subfans")
    if not subfans:
      continue
    for label, sub in subfans.items():
      pair = make_pair(fans[label], sub.rays)
      pairs.append(pair)
  checked = 0
  for pair in pairs:
    if pair.fan.ambient_rank + box.fan.ambient_rank > 5:
      continue
    ok = ok and _convolves(pair, box)
    checked += 1
  report(12, ok and checked >= 20, time.time() - t0, 5,
         "%d product pairs" % checked)


def test_criterion_13_cli_round_trip_and_gallery_exit_codes():
  t0 = time.time()
  corpus = sorted(FIXTURES.glob("*.json"))
  ok = len(corpus) >= 8
  for path in corpus:
    text = path.read_text(encoding="utf-8")
    if serialize_document(parse_document(text)) != text:
      ok = False
      break

  def run(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
      return execute(argv)

  ok = ok and run(["gallery"]) == 0
  mutations = 0
  for name in sorted(CASES):
    if run(["gallery", name, "--mutate", name]) != 1:
      ok = False
      break
    mutations += 1
  report(13, ok, time.time() - t0, 30,
         "%d documents, %d mutations" % (len(corpus), mutations))
