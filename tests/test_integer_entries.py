"""Vector entries are read as integers, never truncated.

Cone.from_rays, Cone.from_inequalities (inequalities and equations),
AffineMonoid.make, IntMatrix.from_rows, make_pair's boundary and
membership's vector read each entry through operator.index.  A float or a Fraction, integral or not,
raises a TypeError that names its vector, where int() once read (0.5, 1)
as (0, 1) and (1.9, 1) as (1, 1); an int, a bool or an int subclass gives
the answer of the plain ints, stored as exact ints.
"""

import re
from fractions import Fraction

import pytest

from logfan.cone import Cone, _cone_from_gens
from logfan.fan import Fan
from logfan.lattice import IntMatrix
from logfan.logpair import make_pair
from logfan.monoid import AffineMonoid, membership

QUADRANT = Fan(2, (Cone.from_rays([(1, 0), (0, 1)], 2),))

ENTRY_POINTS = {
    "from_rays": lambda vs: Cone.from_rays(vs, 2),
    "from_inequalities": lambda vs: Cone.from_inequalities(vs, [], 2),
    "equations": lambda vs: Cone.from_inequalities([], vs, 2),
    "monoid": lambda vs: AffineMonoid.make(vs, 2),
    "matrix": IntMatrix.from_rows,
    "boundary": lambda vs: make_pair(QUADRANT, vs),
}
NON_INTEGER = dict(ENTRY_POINTS, membership=lambda vs: membership(
    AffineMonoid.make([(1, 0), (0, 1)], 2), vs[-1]))


class Int(int):
  pass


def _entries(answer):
  """Every entry of every vector the answer stores."""
  if isinstance(answer, Cone):
    vectors = (answer.rays + answer.lineality_basis + answer.facet_normals
               + answer.span_normals)
  elif isinstance(answer, AffineMonoid):
    vectors = answer.gens
  elif isinstance(answer, IntMatrix):
    vectors = (answer.entries,)
  else:
    vectors = answer.boundary_rays
  return [x for v in vectors for x in v]


@pytest.mark.parametrize("entry", sorted(NON_INTEGER))
@pytest.mark.parametrize("bad", [(0.5, 1), (1.9, 1), [Fraction(3, 2), 1],
                                 (2.0, 1), (Fraction(2), 1)],
                         ids=["half", "one-point-nine", "fraction",
                              "integral-float", "integral-fraction"])
def test_a_non_integer_entry_raises_naming_its_vector(entry, bad):
  with pytest.raises(TypeError, match=re.escape(repr(bad))):
    NON_INTEGER[entry]([(1, 0), bad])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bools_and_int_subclasses_answer_as_ints(entry):
  # from an emptied conversion cache, so no cone of plain ints answers
  _cone_from_gens.cache_clear()
  got = ENTRY_POINTS[entry]([(True, False), (Int(0), Int(1))])
  want = ENTRY_POINTS[entry]([(1, 0), (0, 1)])
  assert got == want
  assert _entries(got) and all(type(x) is int for x in _entries(got))
