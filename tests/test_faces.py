"""faces builds each face from its parent face, with no conversion, and
fills the conversion cache as Cone.from_rays would.

faces walks the faces of a cone top-down: each face is a facet of a parent
one dimension up, each of its facet normals is the projection of the
parent's other facet normal onto its span by two terms, with no Gram
matrix, and its span normals are left to be filled on first read, by one
Hermite kernel (_child_face, Cone.span_normals).  Every face must equal,
field by field, the cone that one conversion of its rays and lineality
gives (reference_faces_by_conversion in cone_reference.py, the earlier
faces), and the face that the earlier builder gives from the whole cone's
data through the adjugate of a Gram matrix
(reference_face_by_projection): rays, lineality, facet normals in their
order, the incidence facet_rays, span normals and dimension.  So must the
faces of Fan.all_cones, for fans whose cones share faces.  The work guards
count calls: faces makes no conversion, no Cone.from_rays call, no
adjugate and no Hermite kernel, builds no face that the cache holds (nor,
for a fan, any shared face twice), and leaves every face where
Cone.from_rays finds it; the first read of the span normals of the faces
it built takes one kernel per face, and a second read none.  A built face
keeps its equality, dimension and span normals through copy, deepcopy and
pickle, before and after that first read, refuses a stored dimension its
kernel contradicts, and answers contains as a fresh conversion does.  The
face budget refuses the cone over the cyclic polytope C(16, 8) and the
rank-14 orthant before building a face, and holds for a fan's all_cones
as a whole: the complete rank-12 projective fan, whose 13 maximal cones
are each within it, is refused before any face is built.
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

from logfan.fan import Fan, product_fan
from logfan.lattice import primitive

from cone_reference import (
    reference_face_by_projection,
    reference_faces_by_conversion,
)
from covering_reference import projective_fan
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
  _cone_from_gens.cache_clear()
  got = [_fields(f) for f in faces(sigma)]
  assert got == [_fields(f) for f in reference_faces_by_conversion(sigma)], sigma
  assert got == [_fields(f) for f in _by_projection(sigma)], sigma


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_faces_match_one_conversion_per_face(d):
  cones = _seeded_cones(d, 40 if d < 6 else 20)
  for sigma in cones:
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


def _read_span_normals_twice(out, kernels, built):
  """Read the span normals of every face twice: the first pass takes one
  Hermite kernel per built face, the second none."""
  first = [f.span_normals for f in out]
  assert len(kernels) == built
  assert [f.span_normals for f in out] == first
  assert len(kernels) == built


WORK_CONES = [REACH_13_RAYS, CYCLIC_8, CUBE_13,
              [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1), (0, 1, 2)],
              [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)]]


@pytest.mark.parametrize("gens", WORK_CONES,
                         ids=["13-ray", "cyclic-8", "cube-13", "lineality-3",
                              "square-in-rank-4"])
def test_faces_make_no_conversion_and_one_kernel_per_face(monkeypatch, gens):
  sigma = Cone.from_rays(gens, len(gens[0]))
  _cone_from_gens.cache_clear()
  conversions = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  from_rays = _count_calls(monkeypatch, Cone, "from_rays", static=True)
  built = _count_calls(monkeypatch, cone_module, "_child_face")
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  # the facet normals are two-term projections, with no Gram matrix
  adjugates = _count_calls(monkeypatch, cone_module, "_adjugate")
  out = faces(sigma)
  assert conversions == [] and from_rays == [] and adjugates == []
  assert len(built) == len(out) - 1  # sigma itself is not rebuilt
  assert kernels == []
  _read_span_normals_twice(out, kernels, len(built))


@pytest.mark.parametrize("gens", WORK_CONES,
                         ids=["13-ray", "cyclic-8", "cube-13", "lineality-3",
                              "square-in-rank-4"])
def test_after_faces_every_face_is_a_conversion_cache_hit(monkeypatch, gens):
  d = len(gens[0])
  sigma = Cone.from_rays(gens, d)
  _cone_from_gens.cache_clear()
  out = faces(sigma)
  conversions = _count_calls(monkeypatch, cone_module, "_pointed_extreme_rays")
  hits = _cone_from_gens.cache_info().hits
  for f in out:
    again = Cone.from_rays(f.generators, d)
    assert again is f
  assert _cone_from_gens.cache_info().hits == hits + len(out)
  assert conversions == []


def _parents(monkeypatch):
  """Count _child_face calls; return the list of the parents they got."""
  parents = []
  orig = cone_module._child_face

  def counted(parent, *args):
    parents.append(parent)
    return orig(parent, *args)

  monkeypatch.setattr(cone_module, "_child_face", counted)
  return parents


@pytest.mark.parametrize("gens", WORK_CONES,
                         ids=["13-ray", "cyclic-8", "cube-13", "lineality-3",
                              "square-in-rank-4"])
def test_the_faces_of_a_cached_face_are_read_not_built(monkeypatch, gens):
  d = len(gens[0])
  sigma = Cone.from_rays(gens, d)
  _cone_from_gens.cache_clear()
  tau = max((f for f in faces(sigma) if f != sigma), key=_order_key)
  assert tau.dim == sigma.dim - 1
  parents = _parents(monkeypatch)
  dots = _count_calls(monkeypatch, cone_module, "_dot")
  got = faces(tau)
  assert parents == [] and dots == []
  assert ([_fields(f) for f in got]
          == [_fields(f) for f in reference_faces_by_conversion(tau)])


@pytest.mark.parametrize("gens", WORK_CONES,
                         ids=["13-ray", "cyclic-8", "cube-13", "lineality-3",
                              "square-in-rank-4"])
def test_faces_build_below_a_facet_a_conversion_cached(monkeypatch, gens):
  # the last facet is walked first, so its faces are built from the
  # conversion's facet data, not from sigma's
  d = len(gens[0])
  sigma = Cone.from_rays(gens, d)
  _cone_from_gens.cache_clear()
  facet = Cone.from_rays(_generators(_pick(sigma.rays, sigma.facet_rays[-1]),
                                     sigma.lineality_basis), d)
  parents = _parents(monkeypatch)
  out = faces(sigma)
  assert next(f for f in out if f == facet) is facet
  assert len(parents) == len(out) - 2
  assert any(p is facet for p in parents)
  assert ([_fields(f) for f in out]
          == [_fields(f) for f in reference_faces_by_conversion(sigma)])


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
  parents = _parents(monkeypatch)
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  adjugates = _count_calls(monkeypatch, cone_module, "_adjugate")
  all_cones = fan.all_cones
  assert kernels == [] and adjugates == []
  _read_span_normals_twice(all_cones, kernels, len(parents))
  got = {(f.rays, f.lineality_basis): _fields(f) for f in all_cones}
  # every face but the maximal cones is built, once, however many maximal
  # cones share it
  assert len(parents) == len(got) - len(fan.max_cones)
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
  sigma = Cone.from_rays(CYCLIC_8, 5)
  _cone_from_gens.cache_clear()
  ray = Cone.from_rays([CYCLIC_8[0]], 5)
  built = _count_calls(monkeypatch, cone_module, "_child_face")
  out = faces(sigma)
  assert ray in out and next(f for f in out if f == ray) is ray
  assert len(built) == len(out) - 2


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
  built = _count_calls(monkeypatch, cone_module, "_child_face")
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
@pytest.mark.parametrize("gens", WORK_CONES,
                         ids=["13-ray", "cyclic-8", "cube-13", "lineality-3",
                              "square-in-rank-4"])
def test_a_face_keeps_its_span_normals_through_copies(monkeypatch, gens, how):
  sigma = Cone.from_rays(gens, len(gens[0]))
  _cone_from_gens.cache_clear()
  built = _count_calls(monkeypatch, cone_module, "_child_face")
  out = faces(sigma)
  wants = [_fresh(f) for f in out]
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  copier = COPIES[how]
  for f, want in zip(out, wants):
    # before the first read: the copy fills its own span normals
    c = copier(f)
    assert c == f and hash(c) == hash(f) and c.dim == f.dim == want.dim
    assert c.span_normals == want.span_normals
    # after it: the copy carries them, and reading them takes no kernel
    assert f.span_normals == want.span_normals
    c = copier(f)
    before = len(kernels)
    assert c == f and c.dim == want.dim
    assert c.span_normals == want.span_normals
    assert len(kernels) == before
  # one kernel for each built face's copy and one for the face itself
  assert len(kernels) == 2 * len(built) > 0


def test_a_stored_dimension_that_the_kernel_contradicts_is_refused():
  sigma = Cone.from_rays(CYCLIC_8, 5)
  _cone_from_gens.cache_clear()
  for f in faces(sigma):
    if f == sigma:
      continue
    for dim in (f.dim - 1, f.dim + 1):
      wrong = Cone(f.ambient_rank, f.rays, f.lineality_basis,
                   facet_normals=f.facet_normals, facet_rays=f.facet_rays,
                   span_normals=None, _dim=dim)
      for _ in range(2):  # a refused read leaves nothing stored
        with pytest.raises(RuntimeError, match="span normals"):
          wrong.span_normals
      with pytest.raises(RuntimeError, match="span normals"):
        wrong.contains(f.interior_point())


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
      assert Cone.from_rays(f.generators, d) is f
      lazy += f._span_normals is None
      fresh = _fresh(f)
      for v in points + [f.interior_point()]:
        assert f.contains(v) == fresh.contains(v), (f, v)
        assert (f.contains_relative_interior(v)
                == fresh.contains_relative_interior(v)), (f, v)
      assert f.span_normals == fresh.span_normals
  assert lazy > 0
  if d > 1:
    assert any(s.lineality_basis for s in cones)
    assert any(s.dim < d and s.is_strictly_convex for s in cones)
