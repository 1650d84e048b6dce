"""Every lru_cache in logfan must earn its memory with a measured hit rate.

The caches allowed are the ones whose hits the workloads show: the cone
conversion and the monoid's membership, group basis and unit split.  A new
cache belongs in ALLOWED only together with its hit rate on a workload.
"""

import ast
import pathlib

import logfan

ALLOWED = {("cone.py", "_cone_from_gens"), ("monoid.py", "_member"),
           ("monoid.py", "_gp_basis"), ("monoid.py", "_unit_split")}
CACHES = {"lru_cache", "cache"}


def _names(node):
  """The names and attribute names used anywhere in an expression."""
  for sub in ast.walk(node):
    if isinstance(sub, ast.Name):
      yield sub.id
    elif isinstance(sub, ast.Attribute):
      yield sub.attr


def _cached_functions(tree):
  """(function name, line) of each function under a cache decorator, and
  (None, line) of each use of a cache name anywhere else."""
  in_decorator = set()
  found = []
  for node in ast.walk(tree):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
      for dec in node.decorator_list:
        ids = {id(sub) for sub in ast.walk(dec)}
        if CACHES & set(_names(dec)):
          in_decorator |= ids
          found.append((node.name, node.lineno))
  for node in ast.walk(tree):
    if id(node) in in_decorator:
      continue
    if ((isinstance(node, ast.Name) and node.id in CACHES)
        or (isinstance(node, ast.Attribute) and node.attr in CACHES)):
      found.append((None, node.lineno))
  return found


def test_only_the_measured_caches_remain():
  package = pathlib.Path(logfan.__file__).parent
  found = set()
  stray = []
  for path in sorted(package.glob("*.py")):
    tree = ast.parse(path.read_text(), str(path))
    for owner, line in _cached_functions(tree):
      if (path.name, owner) in ALLOWED:
        found.add((path.name, owner))
      else:
        stray.append("%s:%d in %s" % (path.name, line, owner))
  assert stray == []
  assert found == ALLOWED
