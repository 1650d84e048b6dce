"""No answer of logfan may depend on an assert, since python -O strips them.

The only asserts allowed in the package are the self-checks of the lattice
normal forms, which verify a result that is already computed.  The test
oracles' own preconditions are asserts that conftest registers for
rewriting, so they too raise under python -O.
"""

import ast
import pathlib

import pytest

import logfan
from cone_reference import (_box_parallelepiped_points,
                            reference_parallelepiped_points)

ALLOWED = {("lattice.py", "_hnf_rows"), ("lattice.py", "_snf_rows"),
           ("lattice.py", "_kernel_rows"),
           ("lattice.py", "complement_projection")}


def _asserts(tree, owner=None):
  """(innermost enclosing function name, line) of every assert."""
  for node in ast.iter_child_nodes(tree):
    if isinstance(node, ast.Assert):
      yield owner, node.lineno
    name = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else owner)
    yield from _asserts(node, name)


def test_only_the_lattice_self_checks_assert():
  package = pathlib.Path(logfan.__file__).parent
  found = set()
  stray = []
  for path in sorted(package.glob("*.py")):
    for owner, line in _asserts(ast.parse(path.read_text(), str(path))):
      if (path.name, owner) in ALLOWED:
        found.add((path.name, owner))
      else:
        stray.append("%s:%d in %s" % (path.name, line, owner))
  assert stray == []
  assert found == ALLOWED


def test_the_oracle_preconditions_raise_under_python_o():
  # a determinant of 0 and dependent rays: neither has a parallelepiped
  with pytest.raises(AssertionError):
    _box_parallelepiped_points([0], [1], [0], [1], 0, [1], 1, 1)
  with pytest.raises(AssertionError):
    reference_parallelepiped_points([(1, 0), (2, 0)], 2)
