"""The holder search of logfan.fan against the all-pairs search it replaced.

_holders finds one maximal target cone holding each mapped source cone
through a ray index, and reads the others off the smallest face of that
cone holding the image, which rests on the target being a fan.  On seeded
fans of ranks 2 to 5 (the fans of acceptance criterion 11 with every
resolution step, star subdivisions of projective fans, product fans with
their projections, and the gallery's fans) the holder lists, is_fan_map and
both subdivision_predicates flags equal those of the all-pairs search kept
in covering_reference.  On targets that are not fans, with fans as
sources, every holder listed is a true holder, is_fan_map is unchanged,
and a True flag is also True for the all-pairs search.
"""

import random

from covering_reference import (
    gallery_fans,
    random_stars,
    reference_holder_predicates,
    reference_holders,
    reference_is_fan_map,
)
from resolution_reference import criterion_11_fans, insert_ray_2d
from logfan.cone import Cone
from logfan.fan import (
    Fan,
    _holders,
    _ray_index,
    complete_2d,
    is_fan_map,
    product_fan,
    resolve_2d,
    subdivision_predicates,
    validate,
)
from logfan.gallery import run_gallery
from logfan.lattice import IntMatrix


def _ident(fan):
  return IntMatrix.identity(fan.ambient_rank)


def _flags(predicate, matrix, src, dst):
  try:
    got = predicate(matrix, src, dst)
  except ValueError:
    return "not a fan map"
  return got.is_partial_subdivision, got.is_subdivision


def _moved(g, fan):
  """The image of a fan under a lattice automorphism g."""
  return Fan.make([Cone.from_rays([g.apply(r) for r in c.rays],
                                  fan.ambient_rank)
                   for c in fan.max_cones], fan.ambient_rank)


def _shear(rng, d):
  rows = [[int(i == j) for j in range(d)] for i in range(d)]
  for _ in range(d):
    i, j = rng.sample(range(d), 2)
    rows[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(rows[i], rows[j])]
  return IntMatrix.from_rows(rows)


def _projection(a, b):
  """The map from the direct sum of ranks a and b onto its first summand."""
  return IntMatrix.from_rows([[int(i == j) for j in range(a + b)]
                              for i in range(a)])


def _both_ways(pairs):
  out = []
  for src, dst in pairs:
    out += [(_ident(src), src, dst), (_ident(src), dst, src)]
  return out


def _rank2_maps(rng):
  pairs = []
  for fan in criterion_11_fans(rng, 15):
    resolved, steps = resolve_2d(fan)
    pairs.append((resolved, fan))
    cur = fan
    for ray in steps:
      nxt = insert_ray_2d(cur, ray)
      pairs.append((nxt, cur))
      cur = nxt
    pairs.append((fan, complete_2d(fan)))
  return _both_ways(pairs)


def _star_maps(rng):
  out = []
  for n in (2, 3, 4, 5):
    for _ in range(2):
      chain = random_stars(rng, n, 3)
      out += _both_ways(list(zip(chain[1:], chain)) + [(chain[-1], chain[0])])
      g = _shear(rng, n)
      out += [(g, chain[-1], _moved(g, chain[0])),
              (g, chain[0], _moved(g, chain[-1]))]
  return out


def _product_maps(rng):
  out = []
  for a, b in ((2, 2), (2, 3), (3, 2)):
    fa, fb = random_stars(rng, a, 2), random_stars(rng, b, 1)
    holed = Fan.make(fb[-1].max_cones[1:], b)
    for left in (fa[0], fa[-1]):
      for right in (fb[-1], holed):
        prod = product_fan(left, right)
        out.append((_projection(a, b), prod, left))
        out.append((_projection(a, b), prod, fa[-1]))
    out += _both_ways([(product_fan(fa[-1], fb[-1]), product_fan(fa[0], fb[0])),
                       (product_fan(fa[-1], holed), product_fan(fa[0], fb[-1]))])
  return out


def _gallery_maps():
  fans = [f for f in gallery_fans() if validate(f).ok]
  out = [(_ident(s), s, t) for s in fans for t in fans
         if s.ambient_rank == t.ambient_rank]
  for case in run_gallery():
    if "phi" in case.fixtures.get("maps", {}):
      f = case.fixtures["fans"]
      out.append((case.fixtures["maps"]["phi"], f["source"], f["target"]))
  return out


def _fan_maps():
  rng = random.Random(31)
  return (_rank2_maps(rng) + _star_maps(rng) + _product_maps(rng)
          + _gallery_maps())


def test_holders_agree_with_all_pairs_on_fans():
  many = found = 0
  ranks = set()
  outcomes = set()
  for matrix, src, dst in _fan_maps():
    assert validate(src).ok and validate(dst).ok
    got = _holders(matrix, src.max_cones, dst, _ray_index(dst.max_cones))
    assert got == reference_holders(matrix, src, dst), (
        [c.rays for c in src.max_cones], [c.rays for c in dst.max_cones])
    assert is_fan_map(matrix, src, dst) == reference_is_fan_map(matrix, src, dst)
    flags = _flags(subdivision_predicates, matrix, src, dst)
    assert flags == _flags(reference_holder_predicates, matrix, src, dst)
    outcomes.add(flags)
    ranks.add(dst.ambient_rank)
    many += sum(len(held) > 1 for _, held in got)
    found += sum(len(held) == 1 for _, held in got)
  assert {2, 3, 4, 5} <= ranks
  assert {(True, True), (True, False), (False, False),
          "not a fan map"} <= outcomes
  # images on a common face of several target cones, and inside one
  assert many > 50 and found > 500


def _not_fans(rng):
  """(matrix, source fan, target that is not a fan) triples: a subdivided
  fan with one coarse cone put back, a fan with a sheared copy of one of
  its cones, overlapping pairs, and a half-plane beside a cone on its
  boundary ray."""
  out = []
  for n in (2, 3, 4):
    chain = random_stars(rng, n, 3)
    fine, coarse = chain[-1], chain[0]
    for extra in [c for c in coarse.max_cones if c not in fine.max_cones][:2]:
      bad = Fan(n, fine.max_cones + (extra,))
      out += [(_ident(fine), fine, bad), (_ident(fine), coarse, bad)]
    g = _shear(rng, n)
    tilted = Cone.from_rays([g.apply(r) for r in fine.max_cones[0].rays], n)
    bad = Fan(n, fine.max_cones + (tilted,))
    out += [(_ident(fine), fine, bad), (_ident(fine), coarse, bad)]
  two = [[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(1, 0), (1, 2)], [(1, 2), (0, 1)]]
  sheets = Fan(2, tuple(Cone.from_rays(rs, 2) for rs in two))
  overlap = Fan.make([Cone.from_rays(rs, 2)
                      for rs in ([(1, 0), (1, 2)], [(1, 1), (0, 1)])], 2)
  for fan in (Fan(2, tuple(Cone.from_rays(rs, 2) for rs in two[:2])),
              Fan(2, tuple(Cone.from_rays(rs, 2) for rs in two[2:])),
              Fan.make([Cone.from_rays([(1, 0), (0, 1)], 2)], 2)):
    for bad in (sheets, overlap):
      out.append((_ident(fan), fan, bad))
  # every ray of the half-plane is a ray of the lower cone, which does not
  # hold the image
  half = Fan(2, (Cone.from_rays([(1, 0), (0, 1), (0, -1)], 2),
                 Cone.from_rays([(1, 0), (0, -1)], 2)))
  upper = Fan.make([Cone.from_rays([(0, 1), (1, 1)], 2)], 2)
  out.append((_ident(upper), upper, half))
  return out


def test_holders_on_targets_that_are_not_fans_only_lose_true_answers():
  fewer = 0
  for matrix, src, dst in _not_fans(random.Random(32)):
    assert validate(src).ok and not validate(dst).ok
    got = _holders(matrix, src.max_cones, dst, _ray_index(dst.max_cones))
    want = reference_holders(matrix, src, dst)
    for (imgs, held), (want_imgs, want_held) in zip(got, want):
      assert imgs == want_imgs
      assert set(held) <= set(want_held)
      assert bool(held) == bool(want_held)
      fewer += len(held) < len(want_held)
    assert is_fan_map(matrix, src, dst) == reference_is_fan_map(matrix, src, dst)
    flags = _flags(subdivision_predicates, matrix, src, dst)
    want_flags = _flags(reference_holder_predicates, matrix, src, dst)
    if flags == "not a fan map" or want_flags == "not a fan map":
      assert flags == want_flags
      continue
    assert flags[0] == want_flags[0]
    assert want_flags[1] or not flags[1]
  assert fewer > 0
