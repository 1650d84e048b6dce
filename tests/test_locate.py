"""Locating points and cones in a fan from its maximal cones.

The lookups of logfan (fan._cones_at, the star-centre search of the CLI,
star_subdivision's membership test, the boundary subfan and the strata
count of a pair) are compared against the closure-based references in
locate_reference.py on gallery fans, seeded star-subdivided pairs of rank
2-4, a fan with a lineality cone and the overlapping fixture, at the origin,
rays, wall points, interior points and points outside the support.
star_subdivision's membership test runs with fan._cones_at refused, since
it reads the holders' incidence and locates no point.  The last test
checks that the CLI's pair commands build no face closure.
"""

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from logfan import cone as cone_module
from logfan import fan as fan_module
from logfan.cli import (
    CliError,
    _cone_at,
    document_from_fan,
    execute,
    parse_document,
    serialize_document,
)
from logfan.cone import Cone, _pick
from logfan.fan import Fan, _cones_at, product_fan, star_subdivision
from logfan.gallery import run_gallery
from logfan.kato import omega_rank_pair
from logfan.logpair import admissible_blowup, boundary_strata_counts, make_pair

from locate_reference import (
    reference_all_cones,
    reference_boundary_subfan,
    reference_cone_at,
    reference_cones_at,
    reference_is_cone_of,
    reference_strata_counts,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
KEY = lambda c: (c.dim, c.rays)


def _fan(cone_rays, d):
  return Fan.make([Cone.from_rays(rays, d) for rays in cone_rays], d)


def _fixture_fan(name):
  return parse_document((FIXTURES / name).read_text(encoding="utf-8")).fan()


def _gallery():
  """(label, fan) for every fan of the gallery, and (label, pair) for every
  fan that has a listed subfan and makes a pair with its rays."""
  fans, pairs = {}, {}
  for case in run_gallery():
    for kind in ("fans", "block_fans", "refinements", "subfans"):
      for key, fan in case.fixtures.get(kind, {}).items():
        fans.setdefault(fan, "%s/%s/%s" % (case.name, kind, key))
    subfans = case.fixtures.get("subfans", {})
    for key, fan in case.fixtures.get("fans", {}).items():
      if key in subfans:
        try:
          pairs["%s/%s" % (case.name, key)] = make_pair(fan, subfans[key].rays)
        except ValueError:
          pass
  return sorted((label, fan) for fan, label in fans.items()), pairs


GALLERY_FANS, GALLERY_PAIRS = _gallery()


def _projective(d):
  basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
  rays = basis + [(-1,) * d]
  return _fan([[r for r in rays if r != skip] for skip in rays], d)


def _p1_power(d):
  fan = _fan([[(1,)], [(-1,)]], 1)
  p1 = fan
  for _ in range(d - 1):
    fan = product_fan(fan, p1)
  return fan


def _star_pairs():
  """Seeded pairs of rank 2-4: a smooth complete fan with random boundary
  rays, then three random admissible blow-ups or star subdivisions."""
  out = {}
  for d in (2, 3, 4):
    for seed in range(3):
      rng = random.Random(100 * d + seed)
      fan = _projective(d) if seed % 2 else _p1_power(d)
      boundary = [r for r in fan.rays if rng.random() < 0.6] or [fan.rays[0]]
      pair = make_pair(fan, boundary)
      for _ in range(3):
        taus = [c for c in sorted(reference_all_cones(pair.fan), key=KEY)
                if c.dim >= 2]
        tau = rng.choice(taus)
        if set(tau.rays) & set(pair.boundary_rays) and rng.random() < 0.7:
          pair = admissible_blowup(pair, tau)
        else:
          pair = make_pair(star_subdivision(pair.fan, tau), pair.boundary_rays)
      out["rank%d-seed%d" % (d, seed)] = pair
  return out


STAR_PAIRS = _star_pairs()

# a line in rank 3 as the common lineality of two half-spaces of a plane
LINEALITY_FAN = _fan([[(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
                      [(1, 0, 0), (-1, 0, 0), (0, 0, 1)]], 3)

FANS = dict(GALLERY_FANS)
FANS.update(("pair/" + k, p.fan) for k, p in STAR_PAIRS.items())
FANS["lineality"] = LINEALITY_FAN
FANS["overlap.json"] = _fixture_fan("overlap.json")

PAIRS = dict(GALLERY_PAIRS)
PAIRS.update(STAR_PAIRS)


def _sum(vectors, d):
  return tuple(sum(col) for col in zip(*vectors)) if vectors else (0,) * d


def _points(fan, rng):
  """The origin, the rays, wall points (sums of the rays on a facet of a
  maximal cone, and of two rays of one), interior points of the maximal
  cones, their negatives and a few random points."""
  d = fan.ambient_rank
  pts = {(0,) * d}
  for c in fan.max_cones:
    pts.update(c.rays)
    pts.update(c.lineality_basis)
    pts.add(_sum(c.rays, d))
    pts.add(_sum(c.rays + c.rays[:1], d))
    pts.update(_sum(_pick(c.rays, on), d) for on in c.facet_rays)
    pts.update(_sum(pair, d) for pair in zip(c.rays, c.rays[1:]))
  pts |= {tuple(-x for x in p) for p in pts}
  pts |= {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(4)}
  return sorted(pts)


def test_inputs_cover_every_kind():
  assert len(GALLERY_FANS) >= 50 and len(GALLERY_PAIRS) >= 10
  assert {p.fan.ambient_rank for p in STAR_PAIRS.values()} == {2, 3, 4}
  assert not LINEALITY_FAN.max_cones[0].is_strictly_convex
  assert len(FANS["overlap.json"].max_cones) == 2


@pytest.mark.parametrize("label", sorted(FANS))
def test_cones_at_matches_the_closure_scan(label):
  fan = FANS[label]
  rng = random.Random(label)
  assert fan.all_cones == reference_all_cones(fan)
  outside = 0
  for x in _points(fan, rng):
    want = reference_cones_at(fan, x)
    assert _cones_at(fan, x) == want, x
    first = reference_cone_at(fan, x)
    if first is None:
      outside += 1
      with pytest.raises(CliError, match="relative interior of no cone"):
        _cone_at(fan, x)
    else:
      assert _cone_at(fan, x) == first, x
  if label in ("lineality", "overlap.json"):
    assert outside


def _candidates(fan, rng):
  """Every cone of the closure, and cones that mostly are not: a cone on
  each point of _points, on two random rays of the fan, and a cone of
  another rank."""
  d = fan.ambient_rank
  out = set(reference_all_cones(fan))
  out.update(Cone.from_rays([x], d) for x in _points(fan, rng))
  rays = fan.rays
  for _ in range(6):
    if len(rays) >= 2:
      out.add(Cone.from_rays(rng.sample(rays, 2), d))
  out.add(Cone.from_rays([(1,) * (d + 1)], d + 1))
  return sorted(out, key=lambda c: (c.ambient_rank,) + KEY(c))


@pytest.mark.parametrize("label", sorted(FANS))
def test_star_subdivision_membership_matches_the_closure(monkeypatch, label):
  # the membership test reads the holders' incidence and locates no point
  def refuse(*args):
    raise AssertionError("star_subdivision located a point")

  monkeypatch.setattr(fan_module, "_cones_at", refuse)
  fan = FANS[label]
  rng = random.Random(label)
  seen = set()
  for tau in _candidates(fan, rng):
    member = reference_is_cone_of(fan, tau)
    seen.add(member)
    try:
      out = star_subdivision(fan, tau)
      refused = False
      assert tau.interior_point() in out.rays, tau
    except ValueError as err:
      refused = str(err) == "tau is not a cone of the fan"
    assert refused == (not member), tau
  assert seen == {True, False}


@pytest.mark.parametrize("label", sorted(PAIRS))
def test_pair_strata_and_boundary_subfan_match_the_closure(label):
  pair = PAIRS[label]
  assert boundary_strata_counts(pair) == reference_strata_counts(pair)
  sub = pair.boundary_subfan
  assert sub == reference_boundary_subfan(pair)
  deepest = max(c.dim for c in reference_all_cones(sub))
  assert omega_rank_pair(pair, 1).dlog_count_at_deepest_stratum == deepest


def _count_faces(monkeypatch):
  """Replace every binding of cone._face_dims, the face pass that both
  cone.faces and Fan.all_cones run, in the logfan modules by a counting
  wrapper; return the list the calls are appended to."""
  calls = []
  orig = cone_module._face_dims

  def counted(sigma):
    calls.append(sigma)
    return orig(sigma)

  for name, module in list(sys.modules.items()):
    if name == "logfan" or name.startswith("logfan."):
      for attr, value in list(vars(module).items()):
        if value is orig:
          monkeypatch.setattr(module, attr, counted)
  return calls


def _run(argv):
  with contextlib.redirect_stdout(io.StringIO()), \
      contextlib.redirect_stderr(io.StringIO()):
    return execute(argv)


def test_pair_commands_enumerate_no_faces(monkeypatch, tmp_path):
  rank3 = make_pair(_p1_power(3), [(1, 0, 0), (0, 1, 0), (0, 0, -1)])
  path3 = tmp_path / "p1-cubed.json"
  path3.write_text(serialize_document(
      document_from_fan(rank3.fan, rank3.boundary_rays, "p1 cubed")))
  docs = [(str(FIXTURES / "box-pair.json"), "1,1"),
          (str(FIXTURES / "proj-pair.json"), "1,1"),
          (str(FIXTURES / "blown-pair.json"), "1,2"),
          (str(path3), "1,1,0")]
  calls = _count_faces(monkeypatch)
  for path, center in docs:
    assert json.loads(pathlib.Path(path).read_text())["boundary_rays"]
    assert _run(["check", path]) == 0
    assert _run(["strata", path]) == 0
    out = str(tmp_path / "out.json")
    assert _run(["blowup", path, "--center=" + center, "-o", out]) == 0
    assert _run(["subdivide", path, "--star", "--center=" + center,
                 "-o", out]) == 0
  assert calls == []
  # the wrapper does see the one reader of the closure
  assert rank3.fan.all_cones
  assert len(calls) == len(rank3.fan.max_cones)
