"""One Hilbert basis per cone: the stored basis and the saturation shortcut.

hilbert_basis keeps its answer on the cone (Cone._hilbert) and returns a
new list each time; a refusal keeps nothing.  saturation(P) reads the
Hilbert basis of P's own cone when that cone is strictly convex and P
generates the whole lattice of its span, and takes the coordinate route
(_cone_lattice_generators) otherwise.  The shortcut is compared with the
coordinate route on seeded monoids of every kind: generating the whole
lattice, the index-2 group of (2, 0), (0, 2), (1, 1) and others like it,
not full-dimensional, and with units.  A monoid keeps its cone too
(AffineMonoid._cone), read once and left out of ==, hash, repr and pickle.
"""

import pickle
import random

import pytest

from logfan import cone as cone_module
from logfan import monoid
from logfan.cone import Cone, _cone_from_gens, hilbert_basis
from logfan.lattice import row_lattice_basis, saturate_row_lattice
from logfan.monoid import AffineMonoid, _gp_basis, saturation


def _fields(c):
  return (c.ambient_rank, c.rays, c.lineality_basis, c.facet_normals,
          c.facet_rays, c.span_normals, c.dim)


def _monoids(rng, kind, count):
  """count seeded monoids of ranks 2 to 4 of the given kind; the even
  ones start with the index-2 monoid of (2, 0), (0, 2), (1, 1)."""
  out = []
  if kind == "even":
    out.append(AffineMonoid.make([(2, 0), (0, 2), (1, 1)], 2))
  for _ in range(count):
    d = rng.randint(2, 4)
    extra = [tuple(rng.randint(0, 3) for _ in range(d))
             for _ in range(rng.randint(1, 3))]
    if kind == "full":
      # the unit vectors generate the lattice, and all entries are >= 0
      gens = [tuple(int(i == j) for j in range(d)) for i in range(d)] + extra
    elif kind == "even":
      # every generator has an even coordinate sum: index 2 or more
      gens = [tuple(2 * int(i == j) for j in range(d)) for i in range(d)]
      gens += [g[:-1] + (g[-1] + sum(g) % 2,) for g in extra]
    elif kind == "flat":
      # x -> (x, x_1 + ... + x_{d-1}) embeds Z^(d-1) as a saturated lattice
      low = [g[:-1] for g in extra] + [
          tuple(rng.randint(-1, 2) for _ in range(d - 1))
          for _ in range(rng.randint(1, 2))]
      gens = [g + (sum(g),) for g in low]
    else:
      g = (rng.choice((-2, -1, 1, 2)),) + tuple(rng.randint(-2, 2)
                                                for _ in range(d - 1))
      gens = extra + [g, tuple(-x for x in g)]
    out.append(AffineMonoid.make(gens, d))
  return out


def _outcome(f, *args):
  try:
    return f(*args)
  except ValueError as e:
    return "refused: %s" % e


@pytest.mark.parametrize("kind, seed", [("full", 51), ("even", 52),
                                        ("flat", 53), ("units", 54)])
def test_the_shortcut_equals_the_coordinate_route(monkeypatch, kind, seed):
  coordinate = monoid._cone_lattice_generators
  routes = []

  def counted(*args):
    routes.append(1)
    return coordinate(*args)

  monkeypatch.setattr(monoid, "_cone_lattice_generators", counted)
  taken = set()
  for P in _monoids(random.Random(seed), kind, 60):
    C, d = P.cone, P.ambient_rank
    gens = [list(g) for g in P.gens]
    whole = row_lattice_basis(gens, d) == saturate_row_lattice(gens, d)
    del routes[:]
    got = _outcome(lambda: saturation(P).gens)
    short = not routes
    assert short == (C.is_strictly_convex and whole), P
    taken.add(short)
    basis = [list(b) for b in _gp_basis(P)]
    want = _outcome(lambda: AffineMonoid.make(
        coordinate(C.facet_normals, C.span_normals, basis), d).gens)
    assert got == want, P
  assert taken == {"full": {True}, "even": {False}, "flat": {True, False},
                   "units": {False}}[kind]


def test_saturation_reads_the_basis_stored_on_its_cone(monkeypatch):
  P = AffineMonoid.make([(1, 0, 0), (0, 1, 0), (1, 1, 3), (0, 0, 1)], 3)
  want = hilbert_basis(P.cone)

  def refuse(*args):
    raise AssertionError("basis computed again")

  monkeypatch.setattr(cone_module, "_enumerated_basis", refuse)
  monkeypatch.setattr(monoid, "_cone_lattice_generators", refuse)
  assert list(saturation(P).gens) == want


def test_a_mutated_answer_does_not_change_the_next():
  for gens, d in [([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3),
                  ([(0, 1), (5, -1)], 2)]:
    sigma = Cone.from_rays(gens, d)
    first = hilbert_basis(sigma)
    want = list(first)
    first.append((7,) * d)
    first[0] = (9,) * d
    again = hilbert_basis(sigma)
    assert again == want and again is not first


def test_a_stored_basis_leaves_the_cone_equal_to_a_fresh_conversion():
  for gens, d in [([(1, 0, 0), (0, 1, 0), (1, 1, 2), (2, 1, 1)], 3),
                  ([(0, 1), (7, -2)], 2),
                  ([(1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 2, 0)], 4)]:
    sigma = Cone.from_rays(gens, d)
    basis = hilbert_basis(sigma)
    assert sigma._hilbert == tuple(basis)
    _cone_from_gens.cache_clear()
    fresh = Cone.from_rays(gens, d)
    assert fresh is not sigma and fresh._hilbert is None
    assert _fields(fresh) == _fields(sigma)
    assert fresh == sigma and hash(fresh) == hash(sigma)
    assert repr(fresh) == repr(sigma)
    assert hilbert_basis(fresh) == basis


def test_a_monoid_keeps_its_cone(monkeypatch):
  for gens, d in [([(1, 0, 0), (0, 1, 0), (1, 1, 2), (2, 1, 1)], 3),
                  ([(1, 0), (-1, 0), (0, 1)], 2), ([(2, 0), (0, 2)], 2)]:
    P = AffineMonoid.make(gens, d)
    before = hash(P), repr(P), pickle.dumps(P)
    first = P.cone
    lookups = []
    monkeypatch.setattr(cone_module, "_cone_from_gens",
                        lambda *args: lookups.append(args))
    assert P.cone is first and lookups == []
    monkeypatch.undo()
    assert first == Cone.from_rays(gens, d)
    fresh = AffineMonoid.make(gens, d)
    assert fresh._cone is None
    assert fresh == P and hash(fresh) == hash(P) == before[0]
    assert repr(fresh) == repr(P) == before[1]
    assert pickle.dumps(fresh) == pickle.dumps(P) == before[2]
    copy = pickle.loads(before[2])
    assert copy == P and copy._cone is None and copy.cone == first


def test_a_refusal_stores_nothing_and_repeats():
  _cone_from_gens.cache_clear()
  big = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2001)], 3)
  line = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
  for sigma, message in [(big, "total simplicial index of 2000"),
                         (line, "strictly convex")]:
    for _ in range(2):
      with pytest.raises(ValueError, match=message):
        hilbert_basis(sigma)
      assert sigma._hilbert is None
