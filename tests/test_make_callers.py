"""Fan.make runs its O(n^2) maximality filter only where cones may nest.

A Fan built directly drops repeats and sorts, but keeps every cone it is
given; Fan.make also drops the cones that lie in others.  Inside logfan
that filter is allowed only on input that may hold such cones: a parsed
document (FanDocument.fan), the pieces of a fiber product, the faces of a
boundary subfan and the gallery's hand-built fans.  Every other result is
a fan of maximal cones by construction and is built with Fan(...).
"""

import ast
import pathlib

import logfan

ALLOWED = {("cli.py", "fan"), ("fan.py", "fiber_product"),
           ("logpair.py", "boundary_subfan")}
ANYWHERE_IN = {"gallery.py"}


def _make_uses(tree):
  """(enclosing function name, line) of each Fan.make in a module."""
  found = []

  def visit(node, owner):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
      owner = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "make"
        and isinstance(node.value, (ast.Name, ast.Attribute))
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "Fan"):
      found.append((owner, node.lineno))
    for child in ast.iter_child_nodes(node):
      visit(child, owner)

  visit(tree, None)
  return found


def test_make_runs_only_where_cones_may_nest():
  package = pathlib.Path(logfan.__file__).parent
  found = set()
  stray = []
  for path in sorted(package.glob("*.py")):
    tree = ast.parse(path.read_text(), str(path))
    for owner, line in _make_uses(tree):
      if path.name in ANYWHERE_IN:
        continue
      if (path.name, owner) in ALLOWED:
        found.add((path.name, owner))
      else:
        stray.append("%s:%d in %s" % (path.name, line, owner))
  assert stray == []
  assert found == ALLOWED


def test_the_finder_sees_a_call_in_a_method():
  tree = ast.parse("class A:\n  def f(self):\n    return Fan.make([], 2)\n"
                   "def g():\n  return logfan.Fan.make\n")
  assert _make_uses(tree) == [("f", 3), ("g", 5)]
