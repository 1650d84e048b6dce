"""faces walks the faces on the cone's ray bitsets, builds each face with its
rays, lineality and dimension only, and leaves its facet data to the
conversion its first read makes.

faces walks the faces of a cone top-down on int bitsets over its rays:
each face's facets are read off the cone's incidence (_facets_of), one
dimension down.  A face is built with no facet normals, facet_rays or
span normals; the first read of any of them fills all three from the
conversion of the face's generators (Cone._fill, through _cone_from_gens),
so the conversion is the one source of facet normals.  Every face, once
filled, must equal, field by field, the cone that one conversion of its
rays and lineality gives (reference_faces_by_conversion in
cone_reference.py), and the face that the deleted projection builder gives
from the whole cone's data (reference_face_by_projection): rays,
lineality, facet normals in their order, the incidence facet_rays, span
normals and dimension.  So must the faces of Fan.all_cones, for fans whose
cones share faces.  The work guards count calls: faces and all_cones make
no conversion, no conversion cache lookup, no Cone.from_rays call, no
adjugate and no Hermite kernel, and build each face, shared or not, once;
a walked face's first read of its facet data makes one cache lookup, and a
second read none, and the walk leaves nothing in the cache.  A walked face
keeps its equality, dimension and filled fields through copy, deepcopy
and pickle, before and after that first read, refuses a stored dimension
or rays its conversion contradicts, and answers contains as a fresh
conversion does.  The face budget refuses the cone over the cyclic
polytope C(16, 8) and the rank-14 orthant before building a face, and
holds for a fan's all_cones as a whole: the complete rank-12 projective
fan, whose 13 maximal cones are each within it, is refused before any face
is built.
"""

import copy
import pickle
import random
import time

import pytest

from logfan import cone as cone_module
from logfan.cone import (
    MAX_FACES,
    Cone,
    _closed_sets,
    _cone_from_gens,
    _convert,
    _generators,
    _order_key,
    _pick,
    faces,
)

from logfan import monoid
from logfan.fan import Fan, product_fan
from logfan.lattice import primitive
from logfan.monoid import AffineMonoid

from cone_reference import (
    reference_face_by_projection,
    reference_faces_by_conversion,
)
from covering_reference import projective_fan
from monoid_reference import reference_monoid_faces
from test_cone_core import CUBE_13, CYCLIC_8, REACH_13_RAYS, _count_calls


def _fields(c):
  return (c.ambient_rank, c.rays, c.lineality_basis, c.facet_normals,
          c.facet_rays, c.span_normals, c.dim)


def _seeded_cones(d, count):
  """Seeded cones of rank d: pointed, with lineality, and of lower
  dimension, so that each kind is met."""
  rng = random.Random(1000 + d)
  out = []
  kinds = set()
  while len(out) < count or (d > 1 and len(kinds) < 3):
    gens = [[rng.randint(-2, 2) for _ in range(d)]
            for _ in range(rng.randint(0, d + 4))]
    if d > 1 and rng.random() < 0.3:
      gens = [g[:-1] + [g[0] - g[1]] for g in gens]
    sigma = Cone.from_rays(gens, d)
    kinds.add("lineality" if sigma.lineality_basis
              else "low" if sigma.dim < d else "pointed")
    out.append(sigma)
  return out


def _by_projection(sigma):
  """Every face of sigma by the earlier builder, sorted as faces sorts."""
  return sorted((reference_face_by_projection(sigma, y)
                 for y in _closed_sets(sigma)), key=_order_key)


def _check(sigma):
  """Every walked face of sigma is built with no facet data, and once read
  equals its own conversion and the projection builder's face."""
  _cone_from_gens.cache_clear()
  out = faces(sigma)
  assert all(f._facet_normals is f._facet_rays is f._span_normals is None
             for f in out if f is not sigma)
  got = [_fields(f) for f in out]
  assert got == [_fields(f) for f in reference_faces_by_conversion(sigma)], sigma
  assert got == [_fields(f) for f in _by_projection(sigma)], sigma


@pytest.mark.parametrize("d", range(1, 9))
def test_faces_match_one_conversion_per_face(d):
  cones = _seeded_cones(d, 40 if d < 6 else 20 if d == 6 else 6)
  for sigma in cones + [Cone.from_rays([], d)]:
    _check(sigma)
  if d > 1:
    assert any(s.lineality_basis for s in cones)
    assert any(s.dim < d and s.is_strictly_convex for s in cones)


@pytest.mark.parametrize("rays", [REACH_13_RAYS, CYCLIC_8, CUBE_13],
                         ids=["13-ray-40-facet", "cyclic-8", "cube-13-rank6"])
def test_faces_of_the_reach_cones_match_one_conversion_per_face(rays):
  _check(Cone.from_rays(rays, len(rays[0])))


def test_faces_of_cones_with_lineality_and_of_lower_dimension():
  for gens, d in [
      ([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1), (0, 1, 2)], 3),
      ([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
        (0, 1, 1, 1)], 4),
      ([(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)], 4),
      ([(1, 0), (-1, 0)], 2),
      ([], 3),
  ]:
    _check(Cone.from_rays(gens, d))


def _read_facet_data_twice(out, lookups, walked):
  """Read the facet data of every face twice: the first pass makes one
  conversion cache lookup per walked face, the second none."""
  first = [(f.facet_normals, f.facet_rays, f.span_normals) for f in out]
  assert len(lookups) == walked
  assert [(f.facet_normals, f.facet_rays, f.span_normals) for f in out] == first
  assert len(lookups) == walked


WORK_CONES = [REACH_13_RAYS, CYCLIC_8, CUBE_13,
              [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1), (0, 1, 2)],
              [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)]]
WORK_IDS = ["13-ray", "cyclic-8", "cube-13", "lineality-3", "square-in-rank-4"]


@pytest.mark.parametrize("gens", WORK_CONES, ids=WORK_IDS)
def test_faces_make_no_conversion_and_one_kernel_per_face(monkeypatch, gens):
  sigma = Cone.from_rays(gens, len(gens[0]))
  _cone_from_gens.cache_clear()
  conversions = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  from_rays = _count_calls(monkeypatch, Cone, "from_rays", static=True)
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  adjugates = _count_calls(monkeypatch, cone_module, "_adjugate")
  out = faces(sigma)
  assert conversions == from_rays == lookups == kernels == adjugates == []
  walked = [f for f in out if f is not sigma]
  assert len(walked) == len(out) - 1
  # the cache is empty, so each first read converts once; the conversion
  # of a proper face takes one kernel for its span normals, and one more
  # for its lineality when it has one
  _read_facet_data_twice(out, lookups, len(walked))
  assert len(conversions) == sum(1 + bool(f.lineality_basis) for f in walked)
  assert len(kernels) == len(conversions) and from_rays == []


@pytest.mark.parametrize("gens", WORK_CONES, ids=WORK_IDS)
def test_after_faces_every_face_is_a_conversion_cache_hit(monkeypatch, gens):
  # the walk stores nothing in the cache; the first read of each walked
  # face leaves its conversion there, where Cone.from_rays finds it
  d = len(gens[0])
  generators = Cone.from_rays(gens, d).generators
  _cone_from_gens.cache_clear()
  sigma = Cone.from_rays(generators, d)
  out = faces(sigma)
  assert _cone_from_gens.cache_info().currsize == 1
  for f in out:
    f.facet_rays
  assert _cone_from_gens.cache_info().currsize == len(out)
  conversions = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  hits = _cone_from_gens.cache_info().hits
  for f in out:
    again = Cone.from_rays(f.generators, d)
    assert (again is f) == (f is sigma)
    assert _fields(again) == _fields(f)
  assert _cone_from_gens.cache_info().hits == hits + len(out)
  assert conversions == []


@pytest.mark.parametrize("gens", WORK_CONES, ids=WORK_IDS)
def test_the_faces_of_a_cached_face_are_read_not_built(monkeypatch, gens):
  # the faces of a walked facet whose conversion the cache holds: the
  # walk reads the facet's data once, a cache hit, and computes nothing
  d = len(gens[0])
  sigma = Cone.from_rays(gens, d)
  _cone_from_gens.cache_clear()
  tau = max((f for f in faces(sigma) if f != sigma), key=_order_key)
  assert tau.dim == sigma.dim - 1 and tau._facet_rays is None
  cached = Cone.from_rays(tau.generators, d)
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  dots = _count_calls(monkeypatch, cone_module, "_dot")
  got = faces(tau)
  assert len(lookups) == 1 and dots == []
  assert tau.facet_rays is cached.facet_rays
  assert ([_fields(f) for f in got]
          == [_fields(f) for f in reference_faces_by_conversion(tau)])


@pytest.mark.parametrize("gens", WORK_CONES, ids=WORK_IDS)
def test_faces_build_below_a_facet_a_conversion_cached(monkeypatch, gens):
  # a facet's conversion in the cache is not read by the walk, which
  # builds the facet and every face below it itself; the facet's first
  # read then fills from that conversion, a cache hit
  d = len(gens[0])
  sigma = Cone.from_rays(gens, d)
  _cone_from_gens.cache_clear()
  facet = Cone.from_rays(_generators(_pick(sigma.rays, sigma.facet_rays[-1]),
                                     sigma.lineality_basis), d)
  built = _count_calls(monkeypatch, cone_module, "Cone")
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  out = faces(sigma)
  monkeypatch.undo()
  assert lookups == [] and len(built) == len(out) - 1
  walked = next(f for f in out if f == facet)
  assert walked is not facet and walked._facet_normals is None
  conversions = _count_calls(monkeypatch, cone_module, "_convert")
  assert _fields(walked) == _fields(facet)
  assert conversions == []
  assert ([_fields(f) for f in out]
          == [_fields(f) for f in reference_faces_by_conversion(sigma)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_monoid_faces_read_each_generator_s_smallest_face(monkeypatch, d):
  # the faces of seeded monoids, with units, multiples of a generator and
  # of lower dimension, are those the earlier containment test gave, and
  # reading them fills no face
  rng = random.Random(3000 + d)
  kinds = set()
  for _ in range(30):
    gens = [[rng.randint(-2, 2) for _ in range(d)]
            for _ in range(rng.randint(1, d + 3))]
    if rng.random() < 0.3:
      gens.append([-x for x in gens[0]])
    if rng.random() < 0.3:
      gens.append([2 * x for x in gens[-1]])
    if d > 1 and rng.random() < 0.3:
      gens = [g[:-1] + [g[0] - g[1]] for g in gens]
    P = AffineMonoid.make(gens, d)
    C = P.cone
    kinds.add("units" if C.lineality_basis
              else "low" if C.dim < d else "pointed")
    _cone_from_gens.cache_clear()
    fills = _count_calls(monkeypatch, Cone, "_fill")
    got = monoid.faces(P)
    assert fills == []
    monkeypatch.undo()
    assert got == reference_monoid_faces(P), P
  if d > 1:
    assert kinds == {"units", "low", "pointed"}


def _lineality_fan():
  """Three cones around the line through (0, 0, 1), each pair sharing a
  face that holds the line."""
  line = [(0, 0, 1), (0, 0, -1)]
  return Fan(3, tuple(Cone.from_rays(list(g) + line, 3) for g in
                      ([(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (-1, -1, 0)],
                       [(-1, -1, 0), (1, 0, 0)])))


SHARED_FANS = {
    "projective-3": lambda: projective_fan(3),
    "projective-4": lambda: projective_fan(4),
    "cube-fan": lambda: product_fan(product_fan(projective_fan(1),
                                                projective_fan(1)),
                                    projective_fan(1)),
    "p2-times-p1": lambda: product_fan(projective_fan(2), projective_fan(1)),
    "around-a-line": _lineality_fan,
}


@pytest.mark.parametrize("name", sorted(SHARED_FANS))
def test_all_cones_builds_each_shared_face_once(monkeypatch, name):
  fan = SHARED_FANS[name]()
  _cone_from_gens.cache_clear()
  built = _count_calls(monkeypatch, cone_module, "Cone")
  conversions = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  adjugates = _count_calls(monkeypatch, cone_module, "_adjugate")
  all_cones = fan.all_cones
  monkeypatch.undo()
  assert conversions == lookups == kernels == adjugates == []
  # every face but the maximal cones is built, once, however many maximal
  # cones share it
  assert len(built) == len(all_cones) - len(fan.max_cones)
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  _read_facet_data_twice(all_cones, lookups, len(built))
  got = {(f.rays, f.lineality_basis): _fields(f) for f in all_cones}
  shared = set()
  for i, c in enumerate(fan.max_cones):
    for f in fan.max_cones[i + 1:]:
      shared |= set(c.rays) & set(f.rays)
  assert shared
  for c in fan.max_cones:
    for f in reference_faces_by_conversion(c):
      assert got[(f.rays, f.lineality_basis)] == _fields(f)
    for f in _by_projection(c):
      assert got[(f.rays, f.lineality_basis)] == _fields(f)


def test_faces_reads_the_faces_a_conversion_left_in_the_cache(monkeypatch):
  # the walk builds the ray face itself, and its first read fills from the
  # ray's conversion in the cache, with no conversion of its own
  sigma = Cone.from_rays(CYCLIC_8, 5)
  _cone_from_gens.cache_clear()
  ray = Cone.from_rays([CYCLIC_8[0]], 5)
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  out = faces(sigma)
  walked = next(f for f in out if f == ray)
  assert lookups == [] and walked is not ray
  conversions = _count_calls(monkeypatch, cone_module, "_convert")
  assert _fields(walked) == _fields(ray)
  assert len(lookups) == 1 and conversions == []
  assert walked.facet_normals is ray.facet_normals


def _cyclic(n, d):
  return [(1,) + tuple(t ** k for k in range(1, d)) for t in range(n)]


@pytest.mark.parametrize("gens, d, count", [
    (_cyclic(16, 9), 9, 13826),
    ([tuple(int(i == j) for j in range(14)) for i in range(14)], 14, 2 ** 14),
], ids=["cyclic-16-rank-9", "orthant-14"])
def test_faces_refuses_a_cone_past_the_budget(gens, d, count):
  # the cone over C(16, 8) took 12-13 s for its 13 826 faces, and the
  # rank-14 orthant 8-17 s for its 16 384
  sigma = Cone.from_rays(gens, d)
  assert count > MAX_FACES
  t0 = time.perf_counter()
  with pytest.raises(ValueError, match="capped at %d faces" % MAX_FACES):
    faces(sigma)
  assert time.perf_counter() - t0 < 1.0


def test_the_face_budget_holds_for_the_faces_of_a_whole_fan(monkeypatch):
  # 13 maximal cones of 4 096 faces each, 8 191 faces in all, which
  # all_cones once built in 3.6 s, and once refused after building two
  # cones' faces (2.2-2.8 s); it stops at the second cone's ray sets,
  # before building any face, and the message shows that no single cone
  # passed the budget
  d = 12
  rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
  rays.append((-1,) * d)
  fan = Fan(d, tuple(Cone.from_rays(rays[:i] + rays[i + 1:], d)
                     for i in range(d + 1)))
  built = _count_calls(monkeypatch, cone_module, "Cone")
  t0 = time.perf_counter()
  with pytest.raises(ValueError,
                     match="faces capped at %d faces; this fan has more"
                     % MAX_FACES):
    fan.all_cones
  assert time.perf_counter() - t0 < 0.5
  assert built == []


def test_the_face_budget_admits_the_rank_10_orthant():
  sigma = Cone.from_rays([tuple(int(i == j) for j in range(10))
                          for i in range(10)], 10)
  assert len(faces(sigma)) == 2 ** 10 <= MAX_FACES


def _fresh(f):
  """The cone of f's rays and lineality by a conversion of its own,
  outside the conversion cache."""
  gens = {primitive(g) for g in f.generators}
  return _convert(tuple(sorted(gens)), f.ambient_rank)


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda c: pickle.loads(pickle.dumps(c))}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("gens", WORK_CONES, ids=WORK_IDS)
def test_a_face_keeps_its_span_normals_through_copies(monkeypatch, gens, how):
  sigma = Cone.from_rays(gens, len(gens[0]))
  _cone_from_gens.cache_clear()
  out = faces(sigma)
  wants = [_fresh(f) for f in out]
  lookups = _count_calls(monkeypatch, cone_module, "_cone_from_gens")
  copier = COPIES[how]
  walked = 0
  for f, want in zip(out, wants):
    walked += f._facet_normals is None
    # before the first read: the copy fills its own facet data
    c = copier(f)
    assert c == f and hash(c) == hash(f) and c.dim == f.dim == want.dim
    assert _fields(c) == _fields(want)
    # after it: the copy carries them, and reading them makes no lookup
    assert _fields(f) == _fields(want)
    c = copier(f)
    before = len(lookups)
    assert c == f and _fields(c) == _fields(want)
    assert len(lookups) == before
  # one lookup for each walked face's copy and one for the face itself
  assert walked == len(out) - 1 and len(lookups) == 2 * walked > 0


def test_a_stored_dimension_that_the_kernel_contradicts_is_refused():
  # a face stored as the walk stores it, with a dimension or rays that the
  # conversion of its generators contradicts: every read of its facet
  # data raises, and nothing is stored
  sigma = Cone.from_rays(CYCLIC_8, 5)
  _cone_from_gens.cache_clear()
  reads = [lambda c: c.facet_normals, lambda c: c.facet_rays,
           lambda c: c.span_normals, lambda c: c.contains(c.interior_point())]
  for f in faces(sigma):
    if f == sigma:
      continue
    wrongs = [Cone(f.ambient_rank, f.rays, f.lineality_basis, None, None, None,
                   dim) for dim in (f.dim - 1, f.dim + 1)]
    if f.dim == 2:
      # a ray set that is not the face's: one of its two rays and another
      # ray of sigma, in a cone of the same dimension
      other = next(r for r in sigma.rays if r not in f.rays)
      wrongs.append(Cone(5, tuple(sorted((f.rays[0], other, f.rays[1]))), (),
                         None, None, None, 2))
    for wrong in wrongs:
      for read in reads + reads:
        with pytest.raises(RuntimeError, match="converts to"):
          read(wrong)
      assert wrong._facet_normals is wrong._span_normals is None


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_a_walked_face_is_the_cached_one_and_contains_as_a_conversion(d):
  rng = random.Random(2000 + d)
  cones = _seeded_cones(d, 25)
  lazy = 0
  for sigma in cones:
    _cone_from_gens.cache_clear()
    out = faces(sigma)
    points = [sigma.interior_point()] + list(sigma.rays)
    points += _generators((), sigma.lineality_basis)
    points += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(8)]
    for f in out:
      lazy += f._facet_normals is None
      fresh = _fresh(f)
      for v in points + [f.interior_point()]:
        assert f.contains(v) == fresh.contains(v), (f, v)
        assert (f.contains_relative_interior(v)
                == fresh.contains_relative_interior(v)), (f, v)
      assert _fields(f) == _fields(fresh)
      assert _fields(Cone.from_rays(f.generators, d)) == _fields(f)
  assert lazy > 0
  if d > 1:
    assert any(s.lineality_basis for s in cones)
    assert any(s.dim < d and s.is_strictly_convex for s in cones)
