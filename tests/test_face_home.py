"""cone.py is the one home of face questions.

One face enumeration (_face_map) serves cone.faces and Fan.all_cones, on
one budgeted pass per cone (_face_dims), one facet rule (_facets_of)
serves the triangulation, and one face test (_is_face) serves is_face_of
and star_subdivision.  The AST guards keep the face internals out of every
other module and point location out of star_subdivision (test_locate.py
runs it with point location refused on the gallery fans and the seeded
star pairs).  The differential tests compare _face_dims, _is_face and
_facets_of with the oracles of cone_reference.py, on seeded cones of
ranks 1 to 8 with lineality, of lower dimension, on coordinate
hyperplanes and the zero cone, on the reach cones, and on the faces of
fans whose cones share faces; the comparison of _face_dims must catch a
planted pass with a wrong dimension, a missing set or an extra one.
chart_smoothness reads injectivity off its one Smith form, checked
against the rank of the group map.  Two more guards keep how a cone is
stored in cone.py: no other module names the incidence decoders or a
hand-made lineality expansion, and only _generators writes a vector next
to its negation.  One more keeps one rays-facets conversion: the only
Cone(...) call in the package that passes facet data is in _convert.
"""

import ast
import pathlib
import random

import pytest

import logfan
from logfan import cone as cone_module
from logfan.cone import (Cone, _face_dims, _facets_of, _generators,
                         _is_face, _pick, faces, is_face_of)
from logfan.kato import CharParam, chart_smoothness
from logfan.lattice import IntMatrix, cokernel, rank
from logfan.monoid import AffineMonoid, MonoidHom, _gp_map

from cone_reference import reference_faces_by_conversion
from test_cone_core import CUBE_13, CYCLIC_8, REACH_13_RAYS
from test_faces import SHARED_FANS, _seeded_cones

PACKAGE = pathlib.Path(logfan.__file__).parent
FACE_INTERNALS = {"_closed_sets", "_walk_faces", "_face_map", "_face_dims",
                  "_facets_of", "_child_face", "_is_face"}


def _trees():
  return {path.name: ast.parse(path.read_text(), str(path))
          for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
  """Every name, attribute name and imported name under node."""
  out = set()
  for sub in ast.walk(node):
    if isinstance(sub, ast.Name):
      out.add(sub.id)
    elif isinstance(sub, ast.Attribute):
      out.add(sub.attr)
    elif isinstance(sub, ast.ImportFrom):
      out.update(alias.name for alias in sub.names)
  return out


def test_the_face_internals_are_named_only_in_cone_py():
  # fan.py may call the walk and the face test, and nothing else of them
  allowed = {"fan.py": {"_face_map", "_is_face"}}
  found = {}
  for name, tree in _trees().items():
    if name != "cone.py":
      extra = (_names(tree) & FACE_INTERNALS) - allowed.get(name, set())
      if extra:
        found[name] = sorted(extra)
  assert found == {}


def test_only_cone_py_names_the_face_budget():
  trees = _trees()
  assert "MAX_FACES" in _names(trees["cone.py"])
  assert [name for name, tree in trees.items()
          if name != "cone.py" and "MAX_FACES" in _names(tree)] == []


def test_star_subdivision_names_no_point_location():
  tree = _trees()["fan.py"]
  star = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "star_subdivision")
  assert "_is_face" in _names(star)
  assert not _names(star) & {"_cones_at", "_smallest_face", "contains"}


# how a cone is stored: the lineality expanded by hand, and the incidence
# bitsets decoded; cone.py answers both (_generators, _facets, _certified)
REPRESENTATION = {"_both_signs", "_pick", "facet_rays", "_cut", "_same_rays"}


def test_only_cone_py_reads_how_a_cone_is_stored():
  found = {}
  for name, tree in _trees().items():
    if name != "cone.py" and _names(tree) & REPRESENTATION:
      found[name] = sorted(_names(tree) & REPRESENTATION)
  assert found == {}


def _paired_with_negation(tree):
  """The lines of the two-element tuples and lists (v, _neg(v)) under tree:
  a vector written next to its negation, as a lineality expansion does."""
  out = []
  for node in ast.walk(tree):
    if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 2:
      v, w = node.elts
      if (isinstance(w, ast.Call) and isinstance(w.func, ast.Name)
          and w.func.id == "_neg" and len(w.args) == 1
          and ast.dump(w.args[0]) == ast.dump(v)):
        out.append(node.lineno)
  return out


def test_only_generators_pairs_a_vector_with_its_negation():
  found = {}
  for name, tree in _trees().items():
    helper = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "_generators"]
    inside = {line for node in helper for line in _paired_with_negation(node)}
    lines = sorted(set(_paired_with_negation(tree)) - inside)
    if lines:
      found[name] = lines
    if name == "cone.py":
      assert len(helper) == 1 and inside
  assert found == {}


def _facet_data_builders(tree):
  """The names of the functions under tree, innermost, holding a Cone(...)
  call that passes facet data: a fourth or fifth positional argument or a
  facet_normals or facet_rays keyword that is not None.  A call outside
  any function is listed under "<module>"."""
  out = []

  def visit(node, where):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
      where = node.name
    if isinstance(node, ast.Call):
      func = node.func
      name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
      data = node.args[3:5] + [k.value for k in node.keywords
                               if k.arg in ("facet_normals", "facet_rays")]
      if name == "Cone" and any(
          not (isinstance(a, ast.Constant) and a.value is None) for a in data):
        out.append(where)
    for child in ast.iter_child_nodes(node):
      visit(child, where)

  visit(tree, "<module>")
  return out


def test_only_the_conversion_builds_a_cone_with_facet_data():
  # the conversion is the one source of facet normals: the face walk
  # builds its faces with None for them
  found = {name: builders for name, tree in _trees().items()
           if (builders := _facet_data_builders(tree))}
  assert found == {"cone.py": ["_convert"]}
  assert "Cone" in _names(next(node for node in ast.walk(_trees()["cone.py"])
                               if isinstance(node, ast.FunctionDef)
                               and node.name == "_face_map"))
  # the guard sees a builder by keyword or by position, at any depth
  planted = ast.parse(
      "def _walk(p):\n"
      "  def child(k):\n"
      "    return Cone(1, (), (), None, None, None, 0)\n"
      "  return Cone(1, (), (), facet_normals=p, facet_rays=None,\n"
      "              span_normals=None, _dim=0)\n"
      "def _project(p):\n"
      "  return cone.Cone(1, (), (), (), (), None, 0)\n")
  assert _facet_data_builders(planted) == ["_walk", "_project"]


def _hyperplane_cones(d, count):
  """Seeded cones of rank d that lie on coordinate hyperplanes: some
  coordinates are 0 on every generator, and some generators come with
  their negatives, so that lineality is met there too."""
  rng = random.Random(2000 + d)
  out = []
  while len(out) < count:
    zero = set(rng.sample(range(d), rng.randint(1, d - 1)))
    gens = [[0 if i in zero else rng.randint(-2, 2) for i in range(d)]
            for _ in range(rng.randint(0, d + 3))]
    if gens and rng.random() < 0.3:
      gens.append([-x for x in gens[0]])
    out.append(Cone.from_rays(gens, d))
  return out


def _face_candidates(sigma, rng):
  """The faces of sigma by the oracle, and cones that mostly are not:
  cones on random subsets of sigma's rays with and without its
  lineality, the zero cone, and cones of a ray sigma lacks."""
  d = sigma.ambient_rank
  lin = list(_generators((), sigma.lineality_basis))
  out = set(reference_faces_by_conversion(sigma))
  out.add(Cone.from_rays([], d))
  for _ in range(8):
    sub = [r for r in sigma.rays if rng.random() < 0.5]
    out.add(Cone.from_rays(sub + lin, d))
    out.add(Cone.from_rays(sub, d))
  out.add(Cone.from_rays([[rng.randint(-3, 3) for _ in range(d)]], d))
  out.add(Cone.from_rays(list(sigma.rays) + [[1] * d], d))
  return sorted(out, key=lambda c: (c.dim, c.rays, c.lineality_basis))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_is_face_matches_the_faces_of_one_conversion_each(d):
  rng = random.Random(d)
  cones = _seeded_cones(d, 25) + (_hyperplane_cones(d, 25) if d > 1 else [])
  cones.append(Cone.from_rays([], d))
  kinds = set()
  for sigma in cones:
    want = set(reference_faces_by_conversion(sigma))
    for gamma in _face_candidates(sigma, rng):
      got = _is_face(gamma, sigma)
      assert got == (gamma in want), (gamma, sigma)
      kinds.add((got, bool(sigma.lineality_basis), gamma.is_zero))
      if not (gamma.lineality_basis or sigma.lineality_basis):
        assert is_face_of(gamma, sigma) == got
  if d > 1:
    assert {(True, True, False), (False, True, False), (True, False, True),
            (False, False, False)} <= kinds
  assert not _is_face(Cone.from_rays([], d + 1), Cone.from_rays([], d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_the_facet_rule_gives_the_facets_of_every_face(d):
  # the facets of a face, by the rule on the whole cone's facet_rays, are
  # those of the face by its own conversion, with a set that makes each
  for sigma in _seeded_cones(d, 15) + _hyperplane_cones(d, 10):
    where = {r: 1 << j for j, r in enumerate(sigma.rays)}
    for face in reference_faces_by_conversion(sigma):
      y = sum(where[r] for r in face.rays)
      got = _facets_of(y, sigma.facet_rays)
      want = sorted(sum(where[r] for r in _pick(face.rays, on))
                    for on in face.facet_rays)
      assert sorted(got) == want, (face, sigma)
      assert [x.bit_count() for x in got] == sorted(
          (x.bit_count() for x in got), reverse=True)
      assert all(y & sigma.facet_rays[j] == x for x, j in got.items())


def _dims_by_conversion(sigma):
  """Each face of sigma by the oracle, as the int bitset of its rays mapped
  to its dimension."""
  where = {r: 1 << j for j, r in enumerate(sigma.rays)}
  return {sum(where[r] for r in f.rays): f.dim
          for f in reference_faces_by_conversion(sigma)}


def _check_dims(sigma):
  """The pass's faces of sigma and their dimensions are the oracle's."""
  assert cone_module._face_dims(sigma) == _dims_by_conversion(sigma), sigma


@pytest.mark.parametrize("d", range(1, 9))
def test_the_face_pass_matches_one_conversion_per_face(d):
  cones = _seeded_cones(d, 40 if d < 6 else 20 if d == 6 else 6)
  cones += _hyperplane_cones(d, 10) if 1 < d < 6 else []
  for sigma in cones + [Cone.from_rays([], d)]:
    _check_dims(sigma)
  if d > 1:
    assert any(s.lineality_basis for s in cones)
    assert any(s.dim < d and s.is_strictly_convex for s in cones)


# a rank-8 cone of 10 rays, 30 facets and 652 faces: some face is first
# cut from a face it is no facet of, and is cut itself before a face it is
# a facet of is read, so a pass that reads the faces in the order it finds
# them, first-in or last-in, leaves some dimension too high
ORDER_8 = [(1, 1, 2, -1, -2, -1, -2, -2), (2, 0, 0, 1, -2, -2, 0, -1),
           (-2, 0, 0, -1, -2, -1, 1, -1), (-2, 1, -1, 1, 0, -2, 1, -2),
           (2, -1, 1, 1, 1, -1, 1, -1), (1, -1, 1, 0, -2, -2, 0, 1),
           (2, 2, 0, 2, 0, -1, 1, -2), (2, 0, 0, 0, 2, -2, 1, 0),
           (-2, 2, 1, -2, 1, 0, 0, 0), (0, 2, -1, -1, 1, 1, 1, 1)]


@pytest.mark.parametrize("rays", [REACH_13_RAYS, CYCLIC_8, CUBE_13, ORDER_8],
                         ids=["13-ray-40-facet", "cyclic-8", "cube-13-rank6",
                              "order-8"])
def test_the_face_pass_of_the_reach_cones(rays):
  _check_dims(Cone.from_rays(rays, len(rays[0])))


@pytest.mark.parametrize("name", sorted(SHARED_FANS))
def test_the_faces_of_a_fan_carry_the_dimensions_of_the_pass(name):
  fan = SHARED_FANS[name]()
  want = set()
  for c in fan.max_cones:
    _check_dims(c)
    want |= {(f.rays, f.lineality_basis, f.dim)
             for f in reference_faces_by_conversion(c)}
  assert {(f.rays, f.lineality_basis, f.dim) for f in fan.all_cones} == want


def _planted(sigma, how):
  """sigma's faces by the pass, then made wrong: a proper face's dimension
  off by one, the zero-ray set dropped, or a ray set that is no face
  added."""
  dims = dict(_face_dims(sigma))
  if how == "wrong dimension":
    dims[next(x for x in dims if 0 < x.bit_count() < len(sigma.rays))] -= 1
  elif how == "missing set":
    del dims[0]
  else:
    dims[min(x for x in range(1 << len(sigma.rays)) if x not in dims)] = 1
  return dims


@pytest.mark.parametrize("how", ["wrong dimension", "missing set",
                                 "extra set"],
                         ids=["wrong-dimension", "missing-set", "extra-set"])
def test_a_planted_wrong_pass_fails_the_differential_test(monkeypatch, how):
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
  _check_dims(sigma)
  real = cone_module._face_dims
  monkeypatch.setattr(cone_module, "_face_dims",
                      lambda c: _planted(c, how) if c == sigma else real(c))
  with pytest.raises(AssertionError):
    _check_dims(sigma)
  # faces reads the planted pass, so its answer changes too
  assert ([(f.rays, f.dim) for f in faces(sigma)]
          != [(f.rays, f.dim) for f in reference_faces_by_conversion(sigma)])


def _homs(count):
  """Seeded monoid maps from N^a into a monoid of N^b holding the images
  and the unit vectors, so the group map need not be injective."""
  rng = random.Random(7)
  out = []
  for _ in range(count):
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[rng.randint(0, 3) for _ in range(a)] for _ in range(b)]
    m = IntMatrix.from_rows(rows)
    units = [[int(i == j) for j in range(b)] for i in range(b)]
    images = [[rows[i][j] for i in range(b)] for j in range(a)]
    src = AffineMonoid.make([[int(i == j) for j in range(a)]
                             for i in range(a)], a)
    dst = AffineMonoid.make(units + [v for v in images if any(v)], b)
    out.append(MonoidHom(src, dst, m))
  return out


def test_chart_smoothness_reads_injectivity_off_the_smith_form():
  seen = set()
  for theta in _homs(60):
    n = _gp_map(theta)
    injective = rank(n) == n.cols
    factors = cokernel(n).invariant_factors
    for p in (0, 2, 3):
      want = injective and not any(p and f % p == 0 for f in factors)
      assert chart_smoothness(theta, CharParam(p)).log_smooth == want
      seen.add((injective, want))
  assert seen == {(True, True), (True, False), (False, False)}
