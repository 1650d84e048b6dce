"""Command-line front end: documents in, reports and documents out.

Fans travel as a restricted JSON dialect with integer entries only; the
serializer is canonical so that documents round-trip byte for byte.  Every
subcommand follows the same exit convention: 0 on success, 1 when a check
fails, 2 for parse or precondition problems and for arithmetic failures
(an overflow or a division by zero), printed as "error: ..." with no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from html import escape

from .cone import Cone, is_smooth
from .fan import (
    Fan,
    _cones_at,
    _require_fan,
    search_refinement,
    star_subdivision,
    support_query,
    validate,
)
from .gallery import CASES, run_gallery
from .kato import CharParam, chart_smoothness
from .lattice import IntMatrix
from .logpair import admissible_blowup, boundary_strata_counts, make_pair
from .monoid import AffineMonoid, MonoidHom, is_exact, is_kummer


# parse_document refuses a higher rank: even an empty document converts the
# zero cone, and `logfan check` of one took 0.016 s at rank 64, 0.40 s at 150
# and 41 s at 1000 (Python 3.11, x86-64).  Tests and benchmarks reach rank 5.
MAX_RANK = 64


class CliError(Exception):
  """A parse or precondition problem; the process exits with code 2."""


@dataclass(frozen=True)
class FanDocument:
  """A fan description as it appears on disk.

  The cone lists are kept exactly as parsed; canonicalization happens only
  when the document is turned into a Fan.  Serializing a parsed document
  therefore reproduces the input byte for byte as long as the input was
  written by the canonical serializer.
  """

  rank: int
  max_cones: tuple
  boundary_rays: tuple | None = None
  metadata: str = ""

  def fan(self) -> Fan:
    cones = [Cone.from_rays(c, self.rank) for c in self.max_cones]
    return Fan.make(cones, self.rank)


def _reject_float(text: str):
  raise ValueError("floating point number %s is not allowed" % text)


def _int_entry(value, where: str) -> int:
  if isinstance(value, bool) or not isinstance(value, int):
    raise CliError("field %s: expected an integer, got %r" % (where, value))
  return value


def _ray_entry(value, rank: int, where: str, *at) -> tuple:
  """The ray value as a tuple of integers.  The field's name, where % at,
  is formatted only for an error: a document has thousands of rays, and
  nearly all of them are fine."""
  if not isinstance(value, list):
    raise CliError("field %s: expected a ray (list of integers)" % (where % at))
  if len(value) != rank:
    raise CliError("field %s: ray length %d does not match rank %d"
                   % (where % at, len(value), rank))
  # json.loads makes exactly int for an integer, and bool for true or false
  if not all(type(x) is int for x in value):
    for i, x in enumerate(value):
      _int_entry(x, "%s[%d]" % (where % at, i))
  return tuple(value)


def parse_document(text: str) -> FanDocument:
  """Parse the restricted JSON dialect, raising CliError with a line or
  field diagnostic on anything outside it."""
  try:
    raw = json.loads(text, parse_float=_reject_float)
  except json.JSONDecodeError as err:
    raise CliError("line %d column %d: %s" % (err.lineno, err.colno, err.msg))
  except ValueError as err:
    raise CliError(str(err))
  except RecursionError:
    raise CliError("nesting of arrays or objects too deep to parse")
  if not isinstance(raw, dict):
    raise CliError("document must be a JSON object")
  known = {"metadata", "rank", "max_cones", "boundary_rays"}
  for key in raw:
    if key not in known:
      raise CliError("unknown field %r" % key)
  if "rank" not in raw:
    raise CliError("field rank: missing")
  rank = _int_entry(raw["rank"], "rank")
  if rank < 1:
    raise CliError("field rank: must be a positive count, got %d" % rank)
  if rank > MAX_RANK:
    raise CliError("field rank: %d is above the limit of %d" % (rank, MAX_RANK))
  if "max_cones" not in raw:
    raise CliError("field max_cones: missing")
  if not isinstance(raw["max_cones"], list):
    raise CliError("field max_cones: expected a list of cones")
  cones = []
  for i, cone in enumerate(raw["max_cones"]):
    if not isinstance(cone, list):
      raise CliError("field max_cones[%d]: expected a list of rays" % i)
    cones.append(tuple(_ray_entry(r, rank, "max_cones[%d][%d]", i, j)
                       for j, r in enumerate(cone)))
  boundary = None
  if "boundary_rays" in raw:
    if not isinstance(raw["boundary_rays"], list):
      raise CliError("field boundary_rays: expected a list of rays")
    boundary = tuple(_ray_entry(r, rank, "boundary_rays[%d]", j)
                     for j, r in enumerate(raw["boundary_rays"]))
  metadata = raw.get("metadata", "")
  if not isinstance(metadata, str):
    raise CliError("field metadata: expected a string")
  return FanDocument(rank, tuple(cones), boundary, metadata)


def _ray_text(ray) -> str:
  return "[%s]" % ", ".join(str(int(x)) for x in ray)


def serialize_document(doc: FanDocument) -> str:
  """Canonical text form: fixed key order, one cone per line, integers."""
  lines = ["{"]
  lines.append('  "metadata": %s,' % json.dumps(doc.metadata))
  lines.append('  "rank": %d,' % doc.rank)
  if doc.max_cones:
    body = ",\n".join("    [%s]" % ", ".join(_ray_text(r) for r in cone)
                      for cone in doc.max_cones)
    cone_block = '  "max_cones": [\n%s\n  ]' % body
  else:
    cone_block = '  "max_cones": []'
  if doc.boundary_rays is None:
    lines.append(cone_block)
  else:
    lines.append(cone_block + ",")
    lines.append('  "boundary_rays": [%s]'
                 % ", ".join(_ray_text(r) for r in doc.boundary_rays))
  lines.append("}")
  return "\n".join(lines) + "\n"


def document_from_fan(fan: Fan, boundary=None, metadata: str = "") -> FanDocument:
  cones = tuple(tuple(c.rays) for c in fan.max_cones)
  rays = None if boundary is None else tuple(sorted(set(boundary)))
  return FanDocument(fan.ambient_rank, cones, rays, metadata)


def _load(path: str) -> FanDocument:
  try:
    with open(path, encoding="utf-8") as handle:
      text = handle.read()
  except OSError as err:
    raise CliError("cannot read %s: %s" % (path, err.strerror))
  try:
    return parse_document(text)
  except CliError as err:
    raise CliError("%s: %s" % (path, err))


def _emit(doc: FanDocument, out: str | None):
  text = serialize_document(doc)
  if out is None:
    sys.stdout.write(text)
  else:
    with open(out, "w", encoding="utf-8") as handle:
      handle.write(text)


def _parse_vector(text: str, what: str) -> tuple:
  parts = [p.strip() for p in text.split(",")]
  try:
    return tuple(int(p) for p in parts)
  except ValueError:
    raise CliError("%s: expected comma-separated integers, got %r"
                   % (what, text))


def _parse_vectors(text: str, what: str) -> list:
  rows = [r for r in (chunk.strip() for chunk in text.split(";")) if r]
  if not rows:
    raise CliError("%s: expected semicolon-separated integer vectors" % what)
  out = [_parse_vector(r, what) for r in rows]
  if len({len(r) for r in out}) != 1:
    raise CliError("%s: vectors differ in length" % what)
  return out


def _search_depth() -> int:
  raw = os.environ.get("LOGFAN_DEPTH")
  if raw is None:
    return 4
  try:
    depth = int(raw)
  except ValueError:
    depth = -1
  if depth < 0:
    raise CliError("LOGFAN_DEPTH must be a nonnegative integer, got %r" % raw)
  return depth


def _yn(flag: bool) -> str:
  return "yes" if flag else "no"


def _cone_at(fan: Fan, center: tuple) -> Cone:
  for cone in _cones_at(fan, center):
    return cone
  raise CliError("center %s lies in the relative interior of no cone"
                 % (center,))


def _cmd_check(args) -> int:
  doc = _load(args.file)
  fan = doc.fan()
  report = validate(fan)
  # the wall test that validate passed shows the support complete too
  complete = report.tiled or support_query(fan).is_complete
  smooth = all(c.is_strictly_convex and is_smooth(c) for c in fan.max_cones)
  name = doc.metadata or args.file
  print("fan %s: rank %d, %d maximal cones"
        % (name, doc.rank, len(fan.max_cones)))
  print("valid: %s" % _yn(report.ok))
  for violation in report.violations:
    kind, first, second = violation
    print("violation: %s -- %s vs %s" % (kind, first, second))
  print("complete: %s" % _yn(complete))
  print("smooth: %s" % _yn(smooth))
  failed = not report.ok
  if doc.boundary_rays is not None:
    try:
      pair = make_pair(fan, doc.boundary_rays)
    except ValueError as err:
      print("boundary problem: %s" % err)
      failed = True
    else:
      print("boundary: %d rays, subfan with %d maximal cones"
            % (len(pair.boundary_rays),
               len(pair.boundary_subfan.max_cones)))
  return 1 if failed else 0


def _load_pair(path: str, command: str):
  """The document at path and its pair, which needs boundary_rays and a fan."""
  doc = _load(path)
  if doc.boundary_rays is None:
    raise CliError("%s needs a pair document with boundary_rays" % command)
  return doc, make_pair(_require_fan(doc.fan(), path), doc.boundary_rays)


def _center(text: str, rank: int) -> tuple:
  """The --center vector, checked to have the document's rank."""
  center = _parse_vector(text, "--center")
  if len(center) != rank:
    raise CliError("--center: length %d does not match rank %d"
                   % (len(center), rank))
  return center


def _cmd_subdivide(args) -> int:
  doc = _load(args.file)
  if args.refine is not None:
    fan = doc.fan()
    if args.star or args.center is not None:
      raise CliError("--refine cannot be combined with --star/--center")
    goal = _load(args.refine).fan()
    path = search_refinement(fan, goal, depth=_search_depth())
    if path is None:
      print("no refinement found within depth %d" % _search_depth())
      return 1
    for tau in path:
      fan = star_subdivision(fan, tau)
    _emit(document_from_fan(fan, doc.boundary_rays, doc.metadata), args.out)
    return 0
  if not args.star or args.center is None:
    raise CliError("subdivide needs --star with --center, or --refine")
  center = _center(args.center, doc.rank)
  fan = _require_fan(doc.fan(), args.file)
  result = star_subdivision(fan, _cone_at(fan, center))
  _emit(document_from_fan(result, doc.boundary_rays, doc.metadata), args.out)
  return 0


def _cmd_blowup(args) -> int:
  doc, pair = _load_pair(args.file, "blowup")
  tau = _cone_at(pair.fan, _center(args.center, doc.rank))
  result = admissible_blowup(pair, tau)
  _emit(document_from_fan(result.fan, result.boundary_rays, doc.metadata),
        args.out)
  return 0


def _cmd_strata(args) -> int:
  _, pair = _load_pair(args.file, "strata")
  counts = boundary_strata_counts(pair)
  for a, count in enumerate(counts, start=1):
    print("a=%d: %d" % (a, count))
  return 0


def _cmd_hom(args) -> int:
  src_gens = _parse_vectors(args.src, "--src")
  dst_gens = _parse_vectors(args.dst, "--dst")
  rows = _parse_vectors(args.matrix, "--matrix")
  source = AffineMonoid.make(src_gens, len(src_gens[0]))
  target = AffineMonoid.make(dst_gens, len(dst_gens[0]))
  matrix = IntMatrix.from_rows([list(r) for r in rows])
  hom = MonoidHom(source, target, matrix)
  char = CharParam(args.char)
  # every answer before the first line, so a refused input prints nothing
  smooth = chart_smoothness(hom, char)
  kummer, exact = is_kummer(hom), is_exact(hom)
  print("kummer: %s" % _yn(kummer))
  print("exact: %s" % _yn(exact))
  print("log smooth (char %d): %s" % (char.p, _yn(smooth.log_smooth)))
  print("log etale (char %d): %s" % (char.p, _yn(smooth.log_etale)))
  return 0


def _cmd_gallery(args) -> int:
  names = None if args.name is None else [args.name]
  if args.mutate is not None:
    selected = sorted(CASES) if names is None else names
    if args.mutate not in selected:
      raise CliError("mutate target %r is not among the selected cases"
                     % args.mutate)
  try:
    cases = run_gallery(names=names, mutate=args.mutate)
  except KeyError:
    raise CliError("unknown gallery case %r" % args.name)
  for case in cases:
    for line in case.report_lines():
      print(line)
    if case.name == "zero-block-groups":
      print("%d/14 groups" % len(case.fixtures["groups"]))
  good = sum(1 for case in cases if case.ok)
  print("%d/%d cases ok" % (good, len(cases)))
  return 0 if good == len(cases) else 1


_VIEW = 420
_CENTER = _VIEW / 2.0
_RADIUS = 180.0


def _drawn(ray) -> tuple:
  """ray, or where its entries overflow the drawing's floats, ray over its
  largest absolute entry, correctly rounded: the same direction."""
  m = max(map(abs, ray))
  try:
    if math.isfinite(_RADIUS * m):
      return ray
  except OverflowError:
    pass
  return tuple(c / m for c in ray)


def _endpoint(ray) -> tuple:
  x, y = _drawn(ray)
  norm = math.hypot(x, y)
  return (_CENTER + _RADIUS * x / norm, _CENTER - _RADIUS * y / norm)


def _fmt(value: float) -> str:
  return "%.2f" % value


def _wedge_path(cone: Cone) -> str:
  a, b = map(_drawn, cone.rays)
  na = math.hypot(*a)
  nb = math.hypot(*b)
  mid = (a[0] / na + b[0] / nb, a[1] / na + b[1] / nb)
  if mid == (0, 0):
    # opposite in floats: a's normal on b's side, by the integer rays
    (p, q), (r, t) = cone.rays
    turn = 1 if p * t > q * r else -1
    mid = (-turn * a[1], turn * a[0])
  points = [_endpoint(a), _endpoint(mid), _endpoint(b)]
  steps = " ".join("L%s,%s" % (_fmt(px), _fmt(py)) for px, py in points)
  return "M%s,%s %s Z" % (_fmt(_CENTER), _fmt(_CENTER), steps)


def render_svg(doc: FanDocument) -> str:
  """Draw a rank-2 fan: grey wedges for the 2-cones, one line per ray,
  boundary rays thick, each line tagged with its integer ray.  A cone with
  lineality has no wedge of two rays, so it is refused."""
  if doc.rank != 2:
    raise CliError("render handles rank 2 only, got rank %d" % doc.rank)
  for i, rays in enumerate(doc.max_cones):
    if not Cone.from_rays(rays, doc.rank).is_strictly_convex:
      raise CliError("max_cones[%d] %s is not strictly convex; render draws "
                     "strictly convex cones only"
                     % (i, [list(r) for r in rays]))
  fan = doc.fan()
  boundary = set(doc.boundary_rays or ())
  lines = [
      '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
      'width="%d" height="%d" viewBox="0 0 %d %d">'
      % (_VIEW, _VIEW, _VIEW, _VIEW),
      "  <title>%s</title>" % escape(doc.metadata or "fan", quote=False),
      '  <rect width="%d" height="%d" fill="white"/>' % (_VIEW, _VIEW),
  ]
  for cone in fan.max_cones:
    if cone.dim != 2:
      continue
    dark = set(cone.rays) <= boundary and boundary
    fill = "#bfbfbf" if dark else "#dedede"
    lines.append('  <path d="%s" fill="%s" stroke="none"/>'
                 % (_wedge_path(cone), fill))
  for ray in fan.rays:
    x2, y2 = _endpoint(ray)
    width = "4.0" if ray in boundary else "1.5"
    lines.append('  <line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#1a1a1a" '
                 'stroke-width="%s" data-ray="%s"/>'
                 % (_fmt(_CENTER), _fmt(_CENTER), _fmt(x2), _fmt(y2),
                    width, ",".join(str(c) for c in ray)))
  lines.append('  <circle cx="%s" cy="%s" r="3" fill="#1a1a1a"/>'
               % (_fmt(_CENTER), _fmt(_CENTER)))
  lines.append("</svg>")
  return "\n".join(lines) + "\n"


def _cmd_render(args) -> int:
  doc = _load(args.file)
  text = render_svg(doc)
  with open(args.out, "w", encoding="utf-8") as handle:
    handle.write(text)
  return 0


def _build_parser() -> argparse.ArgumentParser:
  parser = argparse.ArgumentParser(
      prog="logfan",
      description="Exact fan and pair combinatorics from the command line.")
  sub = parser.add_subparsers(dest="command", required=True)

  p = sub.add_parser("check", help="validate a fan document")
  p.add_argument("file")
  p.set_defaults(func=_cmd_check)

  p = sub.add_parser("subdivide", help="star-subdivide a fan",
                     description="Star-subdivide a fan document.  A document "
                                 "that is not a fan (see check) exits 2.")
  p.add_argument("file")
  p.add_argument("--star", action="store_true",
                 help="subdivide at the cone holding --center")
  p.add_argument("--center",
                 help="integer vector, e.g. --center=1,1")
  p.add_argument("--refine", metavar="GOALFILE",
                 help="search star subdivisions (depth LOGFAN_DEPTH, "
                      "default 4) until the fan refines the goal")
  p.add_argument("-o", "--out")
  p.set_defaults(func=_cmd_subdivide)

  p = sub.add_parser("blowup", help="blow up a pair at an admissible center",
                     description="Blow up a pair document at an admissible "
                                 "center.  A document whose fan is not a fan "
                                 "(see check) exits 2.")
  p.add_argument("file")
  p.add_argument("--center", required=True,
                 help="integer vector, e.g. --center=1,1")
  p.add_argument("-o", "--out")
  p.set_defaults(func=_cmd_blowup)

  p = sub.add_parser("strata", help="count boundary strata of a pair",
                     description="Count the boundary strata of a pair "
                                 "document.  A non-fan (see check) exits 2.")
  p.add_argument("file")
  p.set_defaults(func=_cmd_strata)

  p = sub.add_parser("hom", help="report chart properties of a monoid map")
  p.add_argument("--src", required=True,
                 help="source generators, e.g. --src='2,0;1,1'")
  p.add_argument("--dst", required=True, help="target generators")
  p.add_argument("--matrix", required=True,
                 help="matrix rows, e.g. --matrix='1,0;0,1'")
  p.add_argument("--char", type=int, default=0,
                 help="residue characteristic (default 0)")
  p.set_defaults(func=_cmd_hom)

  p = sub.add_parser("gallery", help="run the verification gallery")
  p.add_argument("name", nargs="?")
  p.add_argument("--mutate", metavar="CASE",
                 help="corrupt the named case's fixtures before checking")
  p.set_defaults(func=_cmd_gallery)

  p = sub.add_parser("render", help="draw a rank-2 fan as SVG")
  p.add_argument("file")
  p.add_argument("-o", "--out", required=True)
  p.set_defaults(func=_cmd_render)
  return parser


# built on the first execute and kept for the process: building it costs
# more than many commands, and parse_args leaves it unchanged
_parser = None


def execute(argv=None) -> int:
  """Run one command line; returns the exit code instead of exiting."""
  global _parser
  if _parser is None:
    _parser = _build_parser()
  try:
    args = _parser.parse_args(argv)
  except SystemExit as err:
    return int(err.code or 0)
  try:
    return args.func(args)
  except (CliError, ValueError, ArithmeticError) as err:
    print("error: %s" % err, file=sys.stderr)
    return 2


def main():
  sys.exit(execute())


if __name__ == "__main__":
  main()
