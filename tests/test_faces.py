"""faces builds each face from the parent cone's incidence, with no
conversion, and fills the conversion cache as Cone.from_rays would.

Every face must equal, field by field, the cone that one conversion of its
rays and lineality gives (reference_faces_by_conversion in
cone_reference.py, the earlier faces): rays, lineality, facet normals in
their order, the incidence facet_rays, span normals and dimension.  The
work guards count calls: faces makes no conversion and no Cone.from_rays
call, at most one Hermite kernel per face it builds, and leaves every face
where Cone.from_rays finds it.  The face budget refuses the cone over the
cyclic polytope C(16, 8) and the rank-14 orthant before building a face,
and holds for a fan's all_cones as a whole: the complete rank-12
projective fan, whose 13 maximal cones are each within it, is refused
before any face is built.
"""

import random
import time

import pytest

from logfan import cone as cone_module
from logfan.cone import (
    MAX_FACES,
    Cone,
    _both_signs,
    _cone_from_gens,
    faces,
)

from logfan.fan import Fan

from cone_reference import reference_faces_by_conversion
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


def _check(sigma):
  _cone_from_gens.cache_clear()
  got = faces(sigma)
  want = reference_faces_by_conversion(sigma)
  assert [_fields(f) for f in got] == [_fields(f) for f in want], sigma


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
  built = _count_calls(monkeypatch, cone_module, "_face")
  kernels = _count_calls(monkeypatch, cone_module, "_kernel_rows")
  out = faces(sigma)
  assert conversions == [] and from_rays == []
  assert len(built) == len(out) - 1  # sigma itself is not rebuilt
  assert len(kernels) <= len(built)


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
    again = Cone.from_rays(list(f.rays) + _both_signs(f.lineality_basis), d)
    assert again is f
  assert _cone_from_gens.cache_info().hits == hits + len(out)
  assert conversions == []


def test_faces_reads_the_faces_a_conversion_left_in_the_cache(monkeypatch):
  sigma = Cone.from_rays(CYCLIC_8, 5)
  _cone_from_gens.cache_clear()
  ray = Cone.from_rays([CYCLIC_8[0]], 5)
  built = _count_calls(monkeypatch, cone_module, "_face")
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
  built = _count_calls(monkeypatch, cone_module, "_face")
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
