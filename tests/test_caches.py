"""Every cache in logfan must earn its memory with a measured hit rate.

A cache is a function under an lru_cache decorator, or a dict cache: a
dict bound at module level and written from inside a function.  The caches
allowed are the ones whose hits the workloads show: the cone conversion,
one bounded dict that Cone.from_rays and faces both fill, and the monoid's
membership, group basis and unit split.  A new cache belongs in ALLOWED only
together with its hit rate on a workload.

The benchmark empties the caches between ops as a new process would have
them, by calling cache_clear() with no argument on every module-level value
of logfan that has one; so each such value must take that call, and the
conversion cache must be empty after it.
"""

import ast
import pathlib
import sys

import pytest

import logfan
from logfan import cone as cone_module
from logfan.cone import Cone, _cone_from_gens, faces

ALLOWED = {("cone.py", "_conversions"), ("monoid.py", "_member"),
           ("monoid.py", "_gp_basis"), ("monoid.py", "_unit_split")}
# the values that empty the allowed caches: the dict cache through the
# conversion that owns it
CLEARED = {("cone", "_cone_from_gens"), ("monoid", "_member"),
           ("monoid", "_gp_basis"), ("monoid", "_unit_split")}
CACHES = {"lru_cache", "cache"}
DICTS = {"dict", "OrderedDict", "defaultdict"}
WRITES = {"setdefault", "update", "pop", "popitem", "move_to_end", "clear",
          "__setitem__", "__delitem__"}


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


def _module_dicts(tree):
  """Name and line of each dict bound at module level."""
  for node in tree.body:
    if isinstance(node, ast.Assign):
      targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
      targets, value = [node.target], node.value
    else:
      continue
    if not (isinstance(value, (ast.Dict, ast.DictComp))
            or (isinstance(value, ast.Call) and DICTS & set(_names(value.func)))):
      continue
    for target in targets:
      if isinstance(target, ast.Name):
        yield target.id, node.lineno


def _written_names(tree):
  """The names that some function body writes as a mapping: by item
  assignment or deletion, or by a mutating method."""
  out = set()
  for fn in ast.walk(tree):
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
      continue
    for node in ast.walk(fn):
      if (isinstance(node, ast.Subscript)
          and isinstance(node.ctx, (ast.Store, ast.Del))
          and isinstance(node.value, ast.Name)):
        out.add(node.value.id)
      elif (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in WRITES
            and isinstance(node.func.value, ast.Name)):
        out.add(node.func.value.id)
  return out


def _caches(tree):
  """(owner, line) of every cache in a module: decorated functions, stray
  uses of a cache decorator's name, and dict caches by their name."""
  found = _cached_functions(tree)
  written = _written_names(tree)
  found += [(name, line) for name, line in _module_dicts(tree)
            if name in written]
  return found


def test_only_the_measured_caches_remain():
  package = pathlib.Path(logfan.__file__).parent
  found = set()
  stray = []
  for path in sorted(package.glob("*.py")):
    tree = ast.parse(path.read_text(), str(path))
    for owner, line in _caches(tree):
      if (path.name, owner) in ALLOWED:
        found.add((path.name, owner))
      else:
        stray.append("%s:%d in %s" % (path.name, line, owner))
  assert stray == []
  assert found == ALLOWED


@pytest.mark.parametrize("source, owner", [
    ("@functools.lru_cache(maxsize=8)\ndef f(x):\n  return x\n", "f"),
    ("from functools import cache\n@cache\ndef f(x):\n  return x\n", "f"),
    ("_seen = {}\ndef f(x):\n  _seen[x] = x\n", "_seen"),
    ("import collections\n_seen = collections.OrderedDict()\n"
     "def f(x):\n  _seen.setdefault(x, x)\n", "_seen"),
    ("_seen: dict = dict()\ndef f(x):\n  _seen.update({x: x})\n", "_seen"),
], ids=["lru_cache", "cache", "dict", "ordered-dict", "annotated-dict"])
def test_a_stray_cache_is_seen(source, owner):
  assert owner in {name for name, _ in _caches(ast.parse(source))}


def test_a_constant_table_is_not_a_cache():
  source = "TABLE = {'a': 1}\ndef f(x):\n  return TABLE[x]\n"
  assert _caches(ast.parse(source)) == []


def test_every_cache_clear_takes_the_benchmarks_call():
  sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
  faces(sigma)
  assert _cone_from_gens.cache_info().currsize > 0
  cleared = set()
  for name, module in sorted(sys.modules.items()):
    if name == "logfan" or name.startswith("logfan."):
      for key, value in list(vars(module).items()):
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
          clear()
          cleared.add((name[len("logfan."):], key))
  assert CLEARED <= cleared
  info = _cone_from_gens.cache_info()
  assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
  assert info.maxsize == cone_module.CONVERSION_CACHE_SIZE


def test_the_conversion_cache_drops_the_least_recently_used(monkeypatch):
  monkeypatch.setattr(cone_module, "CONVERSION_CACHE_SIZE", 2)
  _cone_from_gens.cache_clear()
  a, b = [Cone.from_rays([g], 2) for g in ((1, 0), (0, 1))]
  assert Cone.from_rays([(1, 0)], 2) is a  # a hit: b is now the oldest
  Cone.from_rays([(1, 1)], 2)  # a miss, which drops b
  assert Cone.from_rays([(1, 0)], 2) is a
  assert Cone.from_rays([(0, 1)], 2) is not b
  info = _cone_from_gens.cache_info()
  assert (info.hits, info.misses, info.currsize) == (2, 4, 2)
  _cone_from_gens.cache_clear()
