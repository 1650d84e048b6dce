"""No private function or class of logfan may be left without a caller.

A private definition (a name with one leading underscore, not a dunder) is
live when its name is used somewhere in the package outside its own body;
an import line is not a use.  A helper whose callers were all folded into
another one is then caught here instead of lingering.
"""

import ast
import collections
import pathlib

import logfan

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node):
  """Each name and attribute name used under node, as a Counter; the names
  bound by import lines are aliases, not uses, so they are not counted."""
  return collections.Counter(
      sub.id if isinstance(sub, ast.Name) else sub.attr
      for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_private_definition_is_used():
  package = pathlib.Path(logfan.__file__).parent
  trees = [ast.parse(path.read_text(), str(path))
           for path in sorted(package.glob("*.py"))]
  total = sum((_uses(tree) for tree in trees), collections.Counter())
  defs = [node for tree in trees for node in ast.walk(tree)
          if isinstance(node, DEFS) and node.name.startswith("_")
          and not node.name.startswith("__")]
  assert len(defs) > 50
  dead = ["%s (line %d)" % (node.name, node.lineno) for node in defs
          if total[node.name] == _uses(node)[node.name]]
  assert dead == []
