"""Span tracing of logfan's public functions, installed from outside.

``Tracer.install`` replaces every binding of each listed function in the
``logfan.*`` module namespaces, including copies made by ``from .cone
import intersect`` and the static methods ``Cone.from_rays``,
``Cone.from_inequalities`` and ``Fan.make``.  A span is recorded only while
an op is running; it holds name, start, end, parent span and op id.  Spans
stay in memory in flat arrays until ``write`` is called at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# layer (module) -> public functions traced in it.  _kernels and _speed_py
# sit under cone.hilbert_basis and get no spans of their own.
LAYERS = {
    "lattice": ["hnf", "snf", "kernel_basis", "det"],
    "cone": ["from_inequalities", "intersect", "from_rays", "faces",
             "is_face_of", "hilbert_basis", "dual_cone", "is_smooth"],
    "fan": ["subdivision_predicates", "support_query", "validate", "make",
            "star_subdivision", "resolve_2d", "complete_2d"],
    "monoid": ["membership", "saturation", "is_kummer", "is_exact",
               "structure_queries"],
    "kato": ["chart_smoothness"],
    "logpair": ["make_pair", "boundary_strata_counts", "admissible_blowup"],
    "cli": ["parse_document", "serialize_document", "execute"],
    "gallery": ["run_gallery"],
}

# functions that are static methods of a class in their module
STATIC = {("cone", "from_rays"): "Cone", ("cone", "from_inequalities"): "Cone",
          ("fan", "make"): "Fan"}

# counts taken from the value a function returns
COUNTS = {
    "cone.from_rays": ("cone.from_rays.facets",
                       lambda r: len(getattr(r, "facet_normals", ()))),
    "cone.faces": ("cone.faces.out", len),
    "cone.hilbert_basis": ("cone.hilbert_basis.out", len),
}

SUBDIVISION = "fan.subdivision_predicates"
INTERSECT = "cone.intersect"


def metric_names():
  """Every per-layer metric name with its unit, in report order."""
  out = []
  for layer, fns in LAYERS.items():
    for fn in fns:
      out.append(("%s.%s.calls" % (layer, fn), "count"))
      out.append(("%s.%s.self_s" % (layer, fn), "s"))
    out.append(("%s.self_s" % layer, "s"))
    out.append(("%s.errors" % layer, "count"))
  for name, _ in COUNTS.values():
    out.append((name, "count"))
  out.append(("fan.subdivision_predicates.full_piece_ratio", "ratio"))
  return out


class Tracer:
  """Records spans of the wrapped functions while ``op`` is not negative."""

  def __init__(self):
    self.op = -1
    self.names = []          # span-name table; spans store an index into it
    self.layer_of = []
    self.name_ids = array("H")
    self.parents = array("l")
    self.op_ids = array("l")
    self.starts = array("d")
    self.ends = array("d")
    self.stack = []
    self.errors = {layer: 0 for layer in LAYERS}
    self.counts = {name: 0 for name, _ in COUNTS.values()}
    self.subdivision_depth = 0
    self.pieces = 0
    self.full_pieces = 0
    self.absent = []

  def install(self):
    """Wrap every listed function that exists; record the others as absent."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "logfan" or n.startswith("logfan.")]
    for layer, fns in LAYERS.items():
      module = importlib.import_module("logfan." + layer)
      for fn in fns:
        name = "%s.%s" % (layer, fn)
        owner = module
        if (layer, fn) in STATIC:
          owner = getattr(module, STATIC[layer, fn], None)
        raw = None if owner is None else vars(owner).get(fn)
        if raw is None:
          self.absent.append(name)
          continue
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self._wrap(name, func)
        if isinstance(raw, staticmethod):
          setattr(owner, fn, staticmethod(wrapped))
          continue
        for m in modules:
          for key, value in list(vars(m).items()):
            if value is func:
              setattr(m, key, wrapped)

  def _wrap(self, name, func):
    nid = len(self.names)
    layer = name.split(".")[0]
    self.names.append(name)
    self.layer_of.append(layer)
    count = COUNTS.get(name)
    is_subdivision = name == SUBDIVISION
    is_intersect = name == INTERSECT

    def traced(*args, **kwargs):
      if self.op < 0:
        return func(*args, **kwargs)
      stack = self.stack
      idx = len(self.starts)
      parent = stack[-1] if stack else -1
      self.name_ids.append(nid)
      self.parents.append(parent)
      self.op_ids.append(self.op)
      self.ends.append(0.0)
      stack.append(idx)
      if is_subdivision:
        self.subdivision_depth += 1
      self.starts.append(perf_counter())
      try:
        result = func(*args, **kwargs)
      except Exception:
        if parent < 0 or self.layer_of[self.name_ids[parent]] != layer:
          self.errors[layer] += 1
        raise
      finally:
        self.ends[idx] = perf_counter()
        stack.pop()
        if is_subdivision:
          self.subdivision_depth -= 1
      if count is not None:
        self.counts[count[0]] += count[1](result)
      if is_intersect and self.subdivision_depth:
        self.pieces += 1
        if result.dim == result.ambient_rank:
          self.full_pieces += 1
      return result

    return functools.wraps(func)(traced)

  def metrics(self):
    """Calls and self time per function, self time and errors per layer."""
    n = len(self.starts)
    child = [0.0] * n
    starts, ends, parents = self.starts, self.ends, self.parents
    for i in range(n):
      p = parents[i]
      if p >= 0:
        child[p] += ends[i] - starts[i]
    calls = [0] * len(self.names)
    self_s = [0.0] * len(self.names)
    for i in range(n):
      k = self.name_ids[i]
      calls[k] += 1
      self_s[k] += ends[i] - starts[i] - child[i]
    by_name = dict(zip(self.names, zip(calls, self_s)))
    out = {}
    for layer, fns in LAYERS.items():
      total = 0.0
      for fn in fns:
        c, s = by_name.get("%s.%s" % (layer, fn), (0, 0.0))
        out["%s.%s.calls" % (layer, fn)] = c
        out["%s.%s.self_s" % (layer, fn)] = s
        total += s
      out["%s.self_s" % layer] = total
      out["%s.errors" % layer] = self.errors[layer]
    out.update(self.counts)
    out["fan.subdivision_predicates.full_piece_ratio"] = (
        self.full_pieces / self.pieces if self.pieces else 0.0)
    return out

  def write(self, path):
    """Write the spans as tab-separated lines: op, span, parent, name,
    start and end in seconds."""
    with open(path, "w", encoding="utf-8") as handle:
      handle.write("op\tspan\tparent\tname\tstart\tend\n")
      for i in range(len(self.starts)):
        handle.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
            self.op_ids[i], i, self.parents[i], self.names[self.name_ids[i]],
            self.starts[i], self.ends[i]))
