"""Tests for affine monoids and their homomorphism predicates.

Derived values are pinned against independent oracles: exhaustive
coefficient searches for membership, a bounding-box scan for saturation,
and a brute-force box comparison for exactness preimages.  The hypothesis
blocks cover the algebraic laws (idempotence, face lattice closure, the
Kummer-implies-exact implication on saturated instances).
"""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import logfan
from logfan.lattice import IntMatrix
from logfan.monoid import (
    MAX_MEMBER_NODES,
    AffineMonoid,
    MonoidHom,
    _preimage_generators,
    amalgamated_sum,
    faces,
    group_completion,
    is_exact,
    is_kummer,
    localize,
    membership,
    nth_root,
    quotient,
    saturation,
    structure_queries,
)

N1 = AffineMonoid.make([(1,)], 1)
N2 = AffineMonoid.make([(1, 0), (0, 1)], 2)


def _mono(gens, rank):
  return AffineMonoid.make(gens, rank)


def _brute_member(gens, v, cap):
  """Exhaustive search over coefficient tuples with entries in [0, cap]."""
  for cs in itertools.product(range(cap + 1), repeat=len(gens)):
    s = tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(len(v)))
    if s == tuple(v):
      return True
  return False


def test_membership_standard_quadrant():
  assert membership(N2, (1, 1))
  assert membership(N2, (0, 0))
  assert not membership(N2, (-1, 0))


def test_membership_numerical_semigroup():
  p = _mono([(2,), (3,)], 1)
  assert not membership(p, (1,))
  for k in range(2, 12):
    assert membership(p, (k,))


def test_membership_needs_unit_residual_bookkeeping():
  # pi(v) lies in the projected monoid but v itself is not representable,
  # so any check that forgets the residual along the units would say yes.
  p = _mono([(0, 3), (0, -3), (1, 0), (1, 1)], 2)
  assert not membership(p, (1, 2))
  assert not membership(p, (0, 1))
  assert membership(p, (1, 4))
  assert membership(p, (1, -2))
  assert membership(p, (0, -6))


def test_membership_derived_example_matches_exhaustive_search():
  gens = [(1, 0), (1, 1), (1, 3)]
  p = _mono(gens, 2)
  # first coordinates are all 1, so coefficient sum is bounded by the target
  assert not _brute_member(gens, (1, 2), 1)
  assert not membership(p, (1, 2))
  for v in [(1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (2, 6)]:
    assert membership(p, v) == _brute_member(gens, v, 2)


def test_membership_against_brute_force_on_random_small_monoids():
  # nonnegative generators: every nonzero generator has coordinate sum >= 1,
  # so a representation of v uses total coefficient at most sum(v) <= cap
  rng = random.Random(11)
  for _ in range(40):
    d = rng.choice([1, 2, 3])
    gens = [tuple(rng.randint(0, 3) for _ in range(d))
            for _ in range(rng.randint(1, 4))]
    p = _mono(gens, d)
    for _ in range(6):
      v = tuple(rng.randint(-1, 4) for _ in range(d))
      assert membership(p, v) == _brute_member(p.gens, v, 12), (p.gens, v)


def test_membership_never_misses_a_witnessed_sum():
  # mixed-sign generators: no safe coefficient cap exists for an equality
  # oracle, but every witnessed combination must be recognized
  rng = random.Random(7)
  for _ in range(40):
    d = rng.choice([1, 2, 3])
    gens = [tuple(rng.randint(-2, 3) for _ in range(d))
            for _ in range(rng.randint(1, 4))]
    p = _mono(gens, d)
    for _ in range(4):
      cs = [rng.randint(0, 3) for _ in gens]
      v = tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(d))
      assert membership(p, v), (p.gens, cs)


def test_membership_budget_counts_memo_hits():
  # 25 027 distinct nodes, reached 6.5 million times: a budget on the
  # distinct nodes alone let this run 18 s
  p = _mono([(5,), (6,), (9,)], 1)
  start = time.perf_counter()
  with pytest.raises(ValueError, match="capped at %d nodes" % MAX_MEMBER_NODES):
    membership(p, (137 ** 2,))
  assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("gens, d", [
    ([(1, 0), (0, 1)], 2),
    ([(0, 3), (0, -3), (1, 0), (1, 1)], 2),
    ([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)], 3),
    ([(2,), (3,)], 1),
], ids=["quadrant", "with-units", "square-cone", "numerical"])
def test_membership_on_a_warm_monoid_builds_no_cone(monkeypatch, gens, d):
  # the cone of the monoid comes from the record made once per monoid,
  # not from a Cone.from_rays of every generator per vector
  p = _mono(gens, d)
  membership(p, (0,) * d)
  calls = []
  orig = logfan.cone.Cone.from_rays

  def counted(*args, **kwargs):
    calls.append(args)
    return orig(*args, **kwargs)

  monkeypatch.setattr(logfan.cone.Cone, "from_rays", staticmethod(counted))
  rng = random.Random(3)
  answers = {membership(p, tuple(rng.randint(-3, 5) for _ in range(d)))
             for _ in range(30)}
  assert answers == {True, False}
  assert calls == []


def test_membership_dimension_mismatch():
  with pytest.raises(ValueError):
    membership(N2, (1, 2, 3))


def test_group_completion_gcd():
  assert group_completion(_mono([(2,), (3,)], 1)) == [[1]]
  assert group_completion(_mono([(4,), (6,)], 1)) == [[math.gcd(4, 6)]]


def test_group_completion_standard():
  assert group_completion(N2) == [[1, 0], [0, 1]]


def test_group_completion_index_two_sublattice():
  basis = group_completion(_mono([(0, 1), (2, -1)], 2))
  assert basis == [[2, 0], [0, 1]]


def _brute_saturation(p, box):
  """Lattice points of cone(P) inside P^gp within the box, reduced to an
  irredundant generating set by pairwise-sum elimination."""
  from lattice_reference import express_in_rows
  basis = group_completion(p)
  c = p.cone
  pts = [v for v in itertools.product(range(-box, box + 1), repeat=p.ambient_rank)
         if any(v) and c.contains(v) and express_in_rows(basis, v) is not None]
  ptset = set(pts)
  keep = []
  for x in pts:
    if not any(tuple(a - b for a, b in zip(x, y)) in ptset
               for y in pts if any(a - b for a, b in zip(x, y))):
      keep.append(x)
  return sorted(keep)


def test_saturation_numerical_semigroup():
  assert saturation(_mono([(2,), (3,)], 1)) == N1


def test_saturation_fixed_point():
  assert saturation(N2) == N2


def test_saturation_fills_in_the_strip():
  p = _mono([(1, 0), (1, 1), (1, 3)], 2)
  got = saturation(p)
  assert got.gens == ((1, 0), (1, 1), (1, 2), (1, 3))
  assert sorted(got.gens) == _brute_saturation(p, 3)


def test_saturation_respects_the_generated_group():
  # gp is the even-first-coordinate lattice; (1,0) must not appear
  p = _mono([(0, 1), (2, -1)], 2)
  got = saturation(p)
  assert got == p
  assert not membership(got, (1, 0))


def test_structure_queries_units_and_sharpening():
  p = _mono([(1, 0), (-1, 0), (0, 1)], 2)
  q = structure_queries(p)
  assert q.units == [[1, 0]]
  assert not q.is_sharp
  assert q.sharpening.ambient_rank == 1
  assert q.sharpening == AffineMonoid.make([(1,)], 1)


def test_structure_queries_sharp_case():
  q = structure_queries(N2)
  assert q.is_sharp
  assert q.is_saturated
  assert q.units == []
  assert q.sharpening == N2


def test_structure_queries_full_group():
  p = _mono([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
  q = structure_queries(p)
  assert q.sharpening.ambient_rank == 0
  assert q.sharpening.gens == ()


def test_structure_queries_detects_non_saturated():
  assert not structure_queries(_mono([(2,), (3,)], 1)).is_saturated
  assert structure_queries(_mono([(1,)], 1)).is_saturated


def test_faces_of_the_quadrant():
  fs = faces(N2)
  assert len(fs) == 4
  idxsets = [sorted(i) for _, i in fs]
  assert idxsets == [[], [0], [1], [0, 1]]
  assert fs[0][0].gens == ()
  assert fs[-1][0] == N2


def test_faces_of_the_half_line():
  assert len(faces(N1)) == 2


def test_faces_of_numerical_semigroup_are_trivial_and_full():
  p = _mono([(2,), (3,)], 1)
  fs = faces(p)
  assert len(fs) == 2
  assert fs[0][0].gens == ()
  assert fs[1][0] == p


def test_faces_closed_under_intersection():
  p = _mono([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], 3)
  idxsets = {i for _, i in faces(p)}
  for a in idxsets:
    for b in idxsets:
      assert a & b in idxsets


def test_localize_at_an_axis():
  f = _mono([(1, 0)], 2)
  got = localize(N2, f)
  assert membership(got, (-3, 0))
  assert not membership(got, (0, -1))


def test_localize_at_whole_monoid_gives_the_group():
  p = _mono([(1, 0), (1, 2)], 2)
  got = localize(p, p)
  for g in p.gens:
    assert membership(got, tuple(-x for x in g))
  # the group completion is unchanged
  assert group_completion(got) == group_completion(p)


def test_localize_at_zero_face_is_identity():
  z = _mono([], 2)
  assert localize(N2, z) == N2


def test_localize_rejects_non_face():
  with pytest.raises(ValueError):
    localize(N2, _mono([(1, 1)], 2))


def test_quotient_by_axis():
  f = _mono([(1, 0)], 2)
  assert quotient(N2, f) == AffineMonoid.make([(1,)], 1)


def test_quotient_by_zero_face_is_identity():
  z = _mono([(0, 0)], 2)
  assert quotient(N2, z) == N2
  assert localize(N2, z) == N2


def test_quotient_of_product_by_unit_line():
  p = _mono([(1, 0), (-1, 0), (0, 1)], 2)
  f = _mono([(1, 0), (-1, 0)], 2)
  assert quotient(p, f) == AffineMonoid.make([(1,)], 1)


def test_quotient_rejects_non_face():
  with pytest.raises(ValueError):
    quotient(N2, _mono([(0, 1), (1, 1)], 2))


def _hom(src, tgt, rows):
  return MonoidHom(src, tgt, IntMatrix.from_rows(rows))


def test_hom_validates_generator_images():
  with pytest.raises(ValueError):
    _hom(N1, N2, [[1], [-1]])


def test_hom_validates_shape():
  with pytest.raises(ValueError):
    MonoidHom(N1, N2, IntMatrix.from_rows([[1, 0], [0, 1]]))


def test_amalgamated_sum_coproduct():
  zero = AffineMonoid.make([], 0)
  leg = MonoidHom(zero, N1, IntMatrix(1, 0, ()))
  got = amalgamated_sum(leg, leg)
  assert got == N2


def test_amalgamated_sum_identity_legs():
  p = _mono([(1, 0), (1, 2)], 2)
  ident = _hom(p, p, [[1, 0], [0, 1]])
  got = amalgamated_sum(ident, ident)
  assert got.ambient_rank == 2
  assert len(got.gens) == 2
  assert group_completion(got) == group_completion(p)


def test_amalgamated_sum_pushout_along_doubling():
  l = _hom(N1, N1, [[1]])
  r = _hom(N1, N1, [[2]])
  got = amalgamated_sum(l, r)
  assert got.ambient_rank == 1
  # pushout lattice is Z^2 / (1,-2) = Z; the two axis images land at 2 and 1
  # up to the orientation the projection picks
  sign = 1 if (1,) in got.gens else -1
  assert got.gens == tuple(sorted(((sign,), (2 * sign,))))
  sat = amalgamated_sum(l, r, mode="saturated")
  assert structure_queries(sat).is_saturated


def test_amalgamated_sum_rejects_bad_mode_and_mismatched_sources():
  ident = _hom(N2, N2, [[1, 0], [0, 1]])
  with pytest.raises(ValueError):
    amalgamated_sum(ident, ident, mode="lax")
  other = _hom(N1, N1, [[1]])
  with pytest.raises(ValueError):
    amalgamated_sum(ident, other)


def test_nth_root_of_half_line():
  root, ref = nth_root(N1, 2)
  assert root == N1
  assert ref.row_list() == [[2]]


def test_nth_root_of_quadrant():
  root, ref = nth_root(N2, 3)
  assert root == N2
  assert ref.row_list() == [[3, 0], [0, 3]]


def test_nth_root_identity_refinement():
  root, ref = nth_root(N2, 1)
  assert root == N2
  assert ref == IntMatrix.identity(2)


def test_nth_root_on_skew_cone_by_definition_check():
  from logfan.lattice import det
  p = _mono([(0, 1), (2, -1)], 2)
  root, ref = nth_root(p, 2)
  assert root.gens == p.gens
  assert det(ref) == 4
  # a refined-lattice point q stands for the rational point q/2, and
  # q/2 has 2*(q/2) = q in P exactly when q is a member of P
  for q in itertools.product(range(-3, 4), repeat=2):
    assert membership(root, q) == membership(p, q)
  # the original monoid includes via the refinement map
  for v in [(0, 1), (2, -1), (2, 0), (4, -1)]:
    assert membership(p, v)
    assert membership(root, ref.apply(v))


def test_nth_root_rejects_non_saturated():
  with pytest.raises(ValueError):
    nth_root(_mono([(2,), (3,)], 1), 2)


def test_kummer_power_maps_on_half_line():
  for n in (1, 2, 7):
    assert is_kummer(_hom(N1, N1, [[n]]))


def test_kummer_fails_without_cone_surjectivity():
  assert not is_kummer(_hom(N1, N2, [[1], [0]]))
  # injective with full rational span image, but the image cone misses (0,1)
  p = _mono([(1, 0), (1, 1)], 2)
  assert not is_kummer(_hom(p, N2, [[1, 0], [0, 1]]))


def test_kummer_fails_without_injectivity():
  assert not is_kummer(_hom(N2, N1, [[1, 1]]))


def test_exact_identity_and_multiplication():
  assert is_exact(_hom(N2, N2, [[1, 0], [0, 1]]))
  assert is_exact(_hom(N1, N1, [[2]]))


def test_exact_fails_for_the_sum_map():
  # (1,-1) maps to 0, hence lies in the preimage, but is not in N^2
  assert not is_exact(_hom(N2, N1, [[1, 1]]))


def test_exact_fails_for_cone_inclusion():
  p = _mono([(1, 0), (1, 1)], 2)
  assert not is_exact(_hom(p, N2, [[1, 0], [0, 1]]))


def test_exact_general_path_with_non_saturated_target():
  q = _mono([(2,), (3,)], 1)
  # {x in Z : 2x in <2,3>} = N, and the source is all of N: exact
  assert is_exact(_hom(N1, q, [[2]]))
  # source 2N pulls back to {even x in <2,3>} = 2N as well: exact
  assert is_exact(_hom(_mono([(2,)], 1), q, [[1]]))
  # (3,-2) maps to 0 in the target group, so exactness fails on N^2
  assert not is_exact(_hom(N2, q, [[2, 3]]))


def test_exact_preimage_generators_match_box_scan():
  rng = random.Random(23)
  for _ in range(12):
    d = rng.choice([1, 2])
    src_gens = [tuple(rng.randint(0, 2) for _ in range(d))
                for _ in range(rng.randint(1, 3))]
    try:
      src = _mono(src_gens, d)
    except ValueError:
      continue
    tgt = _mono([(2,), (3,)], 1)
    rows = [[rng.randint(0, 2) for _ in range(d)]]
    try:
      th = MonoidHom(src, tgt, IntMatrix.from_rows(rows))
    except ValueError:
      continue
    pre = _preimage_generators(th)
    pre_mono = AffineMonoid.make(pre, d) if pre else AffineMonoid.make([], d)
    basis = group_completion(src)
    for cs in itertools.product(range(-3, 4), repeat=len(basis)):
      x = tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(d))
      in_pre = membership(tgt, th.apply(x))
      assert membership(pre_mono, x) == in_pre, (src.gens, rows, x)


def test_exact_size_guard_is_informative():
  big = _mono([(5,), (6,), (7,), (8,), (9,)], 1)
  th = _hom(N2, big, [[5, 5]])
  with pytest.raises(ValueError, match="coefficient rank"):
    is_exact(th)


def test_desk_scale_caps():
  with pytest.raises(ValueError):
    AffineMonoid.make([(1,) * 7], 7)
  with pytest.raises(ValueError):
    AffineMonoid.make([(i, i * i) for i in range(1, 18)], 2)


small_vecs = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(small_vecs)
def test_saturation_idempotent_and_extensive(vs):
  p = AffineMonoid.make(vs, 2)
  s = saturation(p)
  assert all(membership(s, g) for g in p.gens)
  assert saturation(s) == s
  assert structure_queries(s).is_saturated


@settings(max_examples=40, deadline=None)
@given(small_vecs)
def test_sharpening_idempotent_and_sharp(vs):
  p = AffineMonoid.make(vs, 2)
  sh = structure_queries(p).sharpening
  q = structure_queries(sh)
  assert q.is_sharp
  assert q.sharpening == sh


@settings(max_examples=30, deadline=None)
@given(small_vecs)
def test_face_lattice_has_bottom_top_and_meets(vs):
  p = AffineMonoid.make(vs, 2)
  fs = faces(p)
  idxsets = {i for _, i in fs}
  # the bottom face is the unit face; it is the trivial monoid exactly
  # when P is sharp (0 cannot be a face once u + (-u) = 0 has u != 0)
  c = p.cone
  units_idx = frozenset(i for i, g in enumerate(p.gens)
                        if c.contains(tuple(-x for x in g)))
  assert units_idx in idxsets
  if structure_queries(p).is_sharp:
    assert frozenset() in idxsets
  assert frozenset(range(len(p.gens))) in idxsets
  for a in idxsets:
    for b in idxsets:
      assert a & b in idxsets


@settings(max_examples=25, deadline=None)
@given(small_vecs,
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=2, max_size=2))
def test_kummer_implies_exact_on_saturated_instances(vs, rows):
  src = saturation(AffineMonoid.make(vs, 2))
  if not src.gens:
    return
  m = IntMatrix.from_rows([list(r) for r in rows])
  img_gens = [m.apply(g) for g in src.gens]
  tgt = saturation(AffineMonoid.make(img_gens, 2))
  th = MonoidHom(src, tgt, m)
  if is_kummer(th):
    assert is_exact(th)


_O_SCRIPT = """
import itertools
from logfan.monoid import AffineMonoid, membership, saturation
for gens, d in [([(2,), (3,)], 1),
                ([(1, 0), (1, 2), (1, 3)], 2),
                ([(1, 0), (-1, 0), (0, 2), (1, 1)], 2),
                ([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 1, -1), (1, 2, 0)], 3)]:
  p = AffineMonoid.make(gens, d)
  print(saturation(p).gens)
  print([v for v in itertools.product(range(-2, 3), repeat=d)
         if membership(p, v)])
"""

_O_HOMS = [
    ["--src=1,0;0,1", "--dst=1,0;1,2;0,1", "--matrix=1,0;0,1"],
    ["--src=1,0;-1,0;0,1", "--dst=1,0;-1,0;1,2", "--matrix=1,0;0,2",
     "--char", "2"],
    ["--src=1", "--dst=1", "--matrix=3", "--char", "3"],
]


def test_membership_saturation_and_hom_agree_under_optimize():
  # the invariants on these paths raise RuntimeError, not assert, so
  # python -O must print the same
  env = dict(os.environ)
  src = str(pathlib.Path(logfan.__file__).parent.parent)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  outs = []
  for optimize in ([], ["-O"]):
    runs = [["-c", _O_SCRIPT]] + [["-m", "logfan", "hom"] + a for a in _O_HOMS]
    out = []
    for argv in runs:
      proc = subprocess.run([sys.executable] + optimize + argv,
                            capture_output=True, text=True, env=env)
      assert proc.returncode == 0, proc.stderr
      out.append(proc.stdout)
    outs.append(out)
  assert outs[0] == outs[1]
  assert outs[0][0].count("\n") == 8
  assert all("kummer: " in o for o in outs[0][1:])
