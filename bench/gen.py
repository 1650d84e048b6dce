"""Seeded input generator for the logfan benchmark.

Runs as its own process so that building inputs never warms the caches of
the process that is measured.  Writes one JSON file of operations; the
``cli`` workload also writes its documents next to it.  Every operation
carries the answer it must produce, known from how the input was built.

    python3 bench/gen.py --workload cones --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The generated input outlasts a 25 s run of logfan 0.1.0 several times
# over; a faster program wraps around to the start (see worker.py).
RESOLVE_BLOCKS = 20
CONES_BLOCKS = 30
CLI_BLOCKS = 64

# resolve2d: every block of 20 fans holds one fan from each decile of the
# resolution length (inserted rays) of criterion-11 fans, for completed and
# for incomplete fans.  A run then costs the same whichever seed drew it.
COMPLETED_UPPER = [7, 9, 11, 12, 14, 16, 18, 20, 23, None]
INCOMPLETE_UPPER = [2, 3, 4, 5, 6, 7, 8, 9, 11, None]
SLOT_ORDER = [(True, 9), (False, 0), (True, 4), (False, 6), (True, 1),
              (False, 9), (True, 7), (False, 3), (True, 2), (False, 5),
              (True, 8), (False, 1), (True, 5), (False, 8), (True, 0),
              (False, 4), (True, 6), (False, 7), (True, 3), (False, 2)]

# The rank-5 cone with 13 rays and 40 facets that ROADMAP item 1 names.
REACH_13_RAYS = [
    (1, -3, -2, -2, 1), (1, -3, -1, -2, 0), (1, -3, 2, 2, 2),
    (1, -2, -2, -3, -2), (1, -2, 1, -3, 0), (1, -2, 3, 2, -2),
    (1, -1, 1, 1, 3), (1, 0, -2, 1, 3), (1, 0, 1, 2, -2), (1, 1, 1, 2, 0),
    (1, 2, 2, -3, 0), (1, 3, 0, -1, 2), (1, 3, 2, -1, 2),
]


# ---------------------------------------------------------------- helpers

def _primitive(v):
  g = 0
  for x in v:
    g = math.gcd(g, x)
  return tuple(x // g for x in v)


def _xgcd(a, b):
  if b == 0:
    return abs(a), (1 if a > 0 else -1), 0
  g, x, y = _xgcd(b, a % b)
  return g, y, x - (a // b) * y


def _hj_length(n, q):
  """Length of the Hirzebruch-Jung continued fraction of n/q."""
  count = 0
  while q:
    b = -(-n // q)
    n, q = q, b * q - n
    count += 1
  return count


def _interior_hilbert_count(u, v):
  """Number of Hilbert basis elements strictly inside the 2-cone (u, v).

  With det(u, w) = 1 and v = a*u + d*w, 0 <= a < d, the cone is
  cone((1, 0), (a, d)) and its interior basis elements are the rays a
  minimal resolution inserts: the length of the continued fraction of
  d/(d - a).
  """
  d = u[0] * v[1] - u[1] * v[0]
  if d < 0:
    u, v, d = v, u, -d
  if d == 1:
    return 0
  _, x, y = _xgcd(u[0], u[1])
  w = (-y, x)
  a = (v[0] * w[1] - v[1] * w[0]) % d
  return _hj_length(d, d - a)


def _unimodular(rng, d, moves):
  """A random unimodular matrix (signed permutation times elementary moves)
  and its inverse, both as lists of rows."""
  perm = list(range(d))
  rng.shuffle(perm)
  signs = [rng.choice((-1, 1)) for _ in range(d)]
  m = [[signs[i] if perm[i] == j else 0 for j in range(d)] for i in range(d)]
  inv = [[m[j][i] for j in range(d)] for i in range(d)]  # orthogonal
  for _ in range(moves if d > 1 else 0):
    i, j = rng.sample(range(d), 2)
    s = rng.choice((-1, 1))
    # m <- E m with E = I + s*e_i e_j^T; inv <- inv E^-1
    m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    for row in inv:
      row[j] -= s * row[i]
  return m, inv


def _apply(m, v):
  return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _matmul(a, b):
  return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
           for j in range(len(b[0]))] for i in range(len(a))]


# -------------------------------------------------------------- resolve2d

def _criterion11_candidates(rng):
  """Endless stream of (fan, completion) pairs drawn the way acceptance
  criterion 11 draws them: two cones on four random rays."""
  from logfan import Cone, Fan, complete_2d
  while True:
    rays = set()
    while len(rays) < 4:
      v = (rng.randint(-9, 9), rng.randint(-9, 9))
      if v != (0, 0):
        rays.add(_primitive(v))
    ordered = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
    cones = [Cone.from_rays([ordered[0], ordered[1]], 2),
             Cone.from_rays([ordered[2], ordered[3]], 2)]
    if any(not c.is_strictly_convex for c in cones):
      continue
    fan = Fan.make(cones, 2)
    if len(fan.max_cones) != 2:
      continue
    yield fan, complete_2d(fan)


def _cone_lists(fan):
  return [[list(r) for r in c.rays] for c in fan.max_cones]


def _resolution_length(fan):
  return sum(_interior_hilbert_count(*c.rays) for c in fan.max_cones
             if c.dim == 2)


def _bucket(upper, steps):
  for i, top in enumerate(upper):
    if top is None or steps <= top:
      return i
  raise AssertionError("unreachable")


def gen_resolve2d(rng):
  queues = {(flag, i): [] for flag in (True, False) for i in range(10)}
  stream = _criterion11_candidates(rng)
  ops = []
  for _ in range(RESOLVE_BLOCKS):
    for flag, decile in SLOT_ORDER:
      while not queues[flag, decile]:
        fan, completion = next(stream)
        for completed, f, upper in ((True, completion, COMPLETED_UPPER),
                                    (False, fan, INCOMPLETE_UPPER)):
          steps = _resolution_length(f)
          if steps:
            queues[completed, _bucket(upper, steps)].append(
                (f, completion, steps))
      f, completion, steps = queues[flag, decile].pop(0)
      ops.append({"kind": "resolve", "fan": _cone_lists(f),
                  "completion": None if flag else _cone_lists(completion),
                  "steps": steps})
  return ops


# ------------------------------------------------------------------ cones

POLYGONS = {
    # counterclockwise vertices; every lattice polygon is normal
    "tri": [(0, 0), (1, 0), (0, 1)],
    "sq": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "pent": [(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
    "hex": [(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)],
    "oct": [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)],
}


def _polygon(name):
  verts = POLYGONS[name]
  xs = [p[0] for p in verts]
  ys = [p[1] for p in verts]
  n = len(verts)
  points = []
  for x in range(min(xs), max(xs) + 1):
    for y in range(min(ys), max(ys) + 1):
      if all((verts[(i + 1) % n][0] - verts[i][0]) * (y - verts[i][1])
             - (verts[(i + 1) % n][1] - verts[i][1]) * (x - verts[i][0]) >= 0
             for i in range(n)):
        points.append((x, y))
  # nonempty faces by dimension, and the facets
  return {"verts": list(verts), "points": points, "f": [n, n, 1], "facets": n}


SEGMENT = {"verts": [(0,), (1,)], "points": [(0,), (1,)], "f": [2, 1],
           "facets": 2}


def _product(p, q):
  f = [0] * (len(p["f"]) + len(q["f"]) - 1)
  for i, a in enumerate(p["f"]):
    for j, b in enumerate(q["f"]):
      f[i + j] += a * b
  return {"verts": [a + b for a in p["verts"] for b in q["verts"]],
          "points": [a + b for a in p["points"] for b in q["points"]],
          "f": f, "facets": p["facets"] + q["facets"]}


def _pyramid(p):
  """Lattice pyramid of height one: p at height 0 plus an apex."""
  zero = (0,) * len(p["verts"][0])
  f = [p["f"][0] + 1] + [p["f"][k] + p["f"][k - 1]
                         for k in range(1, len(p["f"]))] + [1]
  return {"verts": [v + (0,) for v in p["verts"]] + [zero + (1,)],
          "points": [v + (0,) for v in p["points"]] + [zero + (1,)],
          "f": f, "facets": p["facets"] + 1}


def _polytope(spec):
  """Build a polytope from a spec such as 'pyr(hex*seg)'."""
  if spec.startswith("pyr(") and spec.endswith(")"):
    return _pyramid(_polytope(spec[4:-1]))
  parts = spec.split("*")
  out = SEGMENT if parts[0] == "seg" else _polygon(parts[0])
  for part in parts[1:]:
    out = _product(out, SEGMENT if part == "seg" else _polygon(part))
  return out


# One block: ranks 3, 4 and 5 interleaved, 6 to 16 generators each.  Each
# cone is the cone over a lattice polytope built from polygons, segments and
# lattice pyramids, moved by a random unimodular map.  These polytopes are
# normal and their vertices generate the lattice, so the Hilbert basis of
# the cone is the set of height-one lattice points, which is also the
# saturation of the monoid generated by the vertices and any of those points.
CONE_FAMILIES = ["oct", "hex*seg", "tri*tri", "hex", "pyr(oct)", "tri*sq",
                 "pent", "pent*seg", "pyr(pyr(oct))", "sq*seg*seg",
                 "tri*seg", "pyr(pent*seg)", "oct", "sq*seg", "sq*sq"]


def _cone_case(rng, spec):
  poly = _polytope(spec)
  d = len(poly["verts"][0]) + 1
  lift = lambda x: (1,) + tuple(x)
  verts = [lift(v) for v in poly["verts"]]
  points = [lift(p) for p in poly["points"]]
  extra = [p for p in points if p not in verts]
  gens = verts + rng.sample(extra, rng.randint(0, min(len(extra),
                                                      16 - len(verts))))
  rng.shuffle(gens)
  # A signed permutation after a fixed shear: the Hilbert basis enumerates
  # lattice points in a box whose volume a signed permutation keeps, so the
  # seed does not change the cost of a family.
  m, _ = _unimodular(rng, d, 0)
  m = _matmul(m, [[1 if j in (i, i + 1) else 0 for j in range(d)]
                  for i in range(d)])
  # a height-one point is in the monoid only if it is a generator
  members = [tuple(sum(c) for c in zip(*rng.sample(verts, k)))
             for k in (1, 2, 3)]
  nonmembers = [p for p in extra if p not in gens][:2]
  nonmembers.append(tuple(-x for x in verts[0]))
  interior = tuple(sum(c) for c in zip(*verts))
  faces_by_dim = [1] + poly["f"]
  return {
      "kind": "cone",
      "family": spec,
      "rank": d,
      "gens": [list(_apply(m, g)) for g in gens],
      "rays": sorted(list(_apply(m, v)) for v in verts),
      "hilbert": sorted(list(_apply(m, p)) for p in points),
      "facets": poly["facets"],
      "faces_by_dim": faces_by_dim,
      "members": [list(_apply(m, v)) for v in members],
      "nonmembers": [list(_apply(m, v)) for v in nonmembers],
      "interior": list(_apply(m, interior)),
  }


CONE_STEPS = ["from_rays", "faces", "hilbert_basis", "dual_cone",
              "from_inequalities", "is_face_of", "membership", "saturation"]


def gen_cones(rng):
  """Each cone is one from_rays op followed by ops on the cone it built."""
  ops = []
  for _ in range(CONES_BLOCKS):
    for spec in CONE_FAMILIES:
      case = _cone_case(rng, spec)
      for step in CONE_STEPS:
        if step == "dual_cone" and case["rank"] > 4:
          continue
        op = {"kind": "cone", "step": step}
        if step == "from_rays":
          op["input"] = case
        ops.append(op)
  return ops


def gen_reach(out_dir):
  """Cases that logfan 0.1.0 does not finish within the time limit."""
  with open(os.path.join(out_dir, "reach-13.json"), "w",
            encoding="utf-8") as handle:
    handle.write(_doc_text(5, [REACH_13_RAYS], None,
                           "rank-5 cone, 13 rays, 40 facets"))
  return [
      {"name": "check-13-ray-40-facet-rank5",
       "argv": ["check", "{dir}/reach-13.json"]},
      {"name": "faces-cyclic-8-rank5", "step": "faces",
       "rays": [[1, t, t * t, t ** 3, t ** 4] for t in range(8)]},
      {"name": "hilbert-simplicial-det-1e8-rank5", "step": "hilbert_basis",
       "rays": [[1, 0, 0, 0, 0], [1, 97, 0, 0, 0], [1, 5, 101, 0, 0],
                [1, 3, 7, 103, 0], [1, 2, 9, 11, 107]]},
  ]


# -------------------------------------------------------------------- cli

def _projective(rank):
  rays = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
  rays.append(tuple(-1 for _ in range(rank)))
  return [frozenset(c) for c in itertools.combinations(rays, rank)]


def _star(cones, tau):
  center = tuple(sum(r[i] for r in tau) for i in range(len(next(iter(tau)))))
  out = [c for c in cones if not tau <= c]
  for c in cones:
    if tau <= c:
      out.extend((c - {a}) | {center} for a in tau)
  return out, center


def _random_face(rng, cones, must_meet=None):
  """A random cone of dimension >= 2 of a smooth simplicial fan, optionally
  one containing a ray of must_meet."""
  while True:
    c = sorted(rng.choice(cones))
    tau = frozenset(rng.sample(c, rng.randint(2, len(c))))
    if must_meet is None or tau & must_meet:
      return tau


def _smooth_fan(rng, rank):
  cones = _projective(rank)
  stars = {2: (2, 6), 3: (1, 4), 4: (0, 2)}[rank]
  for _ in range(rng.randint(*stars)):
    cones, _ = _star(cones, _random_face(rng, cones))
  return cones


def _rays_of(cones):
  return sorted({r for c in cones for r in c})


def _maximal(sets):
  return [s for s in sets if not any(s < t for t in sets)]


def _subfan_count(cones, boundary):
  faces = {frozenset(sub) for c in cones for k in range(len(c) + 1)
           for sub in itertools.combinations(sorted(c), k)}
  inside = [f for f in faces if f <= boundary]
  return len(_maximal(inside))


def _strata(cones, boundary, rank):
  counts = []
  for a in range(1, rank + 1):
    counts.append(sum(1 for sub in itertools.combinations(sorted(boundary), a)
                      if any(set(sub) <= c for c in cones)))
  return counts


def _ray_text(r):
  return "[%s]" % ", ".join(str(x) for x in r)


def _doc_text(rank, cones, boundary, metadata):
  """A document in the canonical layout of the fan dialect."""
  body = ",\n".join("    [%s]" % ", ".join(_ray_text(r) for r in sorted(c))
                    for c in sorted(sorted(c) for c in cones))
  text = '{\n  "metadata": %s,\n  "rank": %d,\n  "max_cones": [\n%s\n  ]' % (
      json.dumps(metadata), rank, body)
  if boundary is not None:
    text += ',\n  "boundary_rays": [%s]' % ", ".join(
        _ray_text(r) for r in sorted(boundary))
  return text + "\n}\n"


def _cone_key(cones):
  return sorted(sorted(list(r) for r in c) for c in cones)


def _check_lines(name, rank, cones, boundary):
  lines = ["fan %s: rank %d, %d maximal cones" % (name, rank, len(cones)),
           "valid: yes", "complete: yes", "smooth: yes"]
  if boundary is not None:
    lines.append("boundary: %d rays, subfan with %d maximal cones"
                 % (len(boundary), _subfan_count(cones, boundary)))
  return lines


def _strata_lines(cones, boundary, rank):
  return ["a=%d: %d" % (a, n)
          for a, n in enumerate(_strata(cones, boundary, rank), start=1)]


# hom charts N^k -> N^m with the matrix A in standard coordinates, and the
# four answers (kummer, exact, log smooth, log etale) as functions of the
# characteristic p.
HOM_CHARTS = [
    ("root", lambda k, n: [[n if i == j else 0 for j in range(k)]
                           for i in range(k)],
     lambda n, p: (True, True, p == 0 or n % p != 0, p == 0 or n % p != 0)),
    ("inclusion", lambda k, n: [[1 if i == j else 0 for j in range(k)]
                                for i in range(k + 1)],
     lambda n, p: (False, True, True, False)),
    ("sum", lambda k, n: [[1] * (k + 1)],
     lambda n, p: (False, False, False, False)),
    ("diagonal", lambda k, n: [[1] for _ in range(k + 1)],
     lambda n, p: (False, True, True, False)),
]


def _hom_op(rng, index):
  name, matrix, answers = HOM_CHARTS[index % len(HOM_CHARTS)]
  k = rng.randint(1, 2) if name != "root" else rng.randint(1, 3)
  n = rng.randint(2, 4)
  p = rng.choice((0, 2, 3, 5))
  a = matrix(k, n)
  src_rank, dst_rank = len(a[0]), len(a)
  u, u_inv = _unimodular(rng, src_rank, src_rank)
  v, _ = _unimodular(rng, dst_rank, dst_rank)
  src = [[u[i][j] for i in range(src_rank)] for j in range(src_rank)]
  dst = [[v[i][j] for i in range(dst_rank)] for j in range(dst_rank)]
  mat = _matmul(_matmul(v, a), u_inv)
  vec = lambda rows: ";".join(",".join(str(x) for x in r) for r in rows)
  yn = lambda flag: "yes" if flag else "no"
  kummer, exact, smooth, etale = answers(n, p)
  return {"kind": "cli", "chart": name,
          "argv": ["hom", "--src=" + vec(src), "--dst=" + vec(dst),
                   "--matrix=" + vec(mat), "--char=%d" % p],
          "code": 0,
          "lines": ["kummer: %s" % yn(kummer), "exact: %s" % yn(exact),
                    "log smooth (char %d): %s" % (p, yn(smooth)),
                    "log etale (char %d): %s" % (p, yn(etale))]}


def _fixture_expectation(rel):
  if rel.startswith("invalid/"):
    return 2
  return 1 if os.path.basename(rel) == "overlap.json" else 0


def gen_cli(rng, out_dir):
  fixture_dir = os.path.join(ROOT, "tests", "fixtures")
  fixtures = []
  for base, _, files in sorted(os.walk(fixture_dir)):
    for f in sorted(files):
      if f.endswith(".json"):
        fixtures.append(os.path.relpath(os.path.join(base, f), fixture_dir))
  fixtures.sort()
  from logfan.gallery import CASES
  gallery = sorted(CASES)
  files = {}
  ops = []

  def doc(name, rank, boundary_share):
    cones = _smooth_fan(rng, rank)
    boundary = None
    if boundary_share:
      rays = _rays_of(cones)
      boundary = frozenset(rng.sample(rays, max(1, round(len(rays) / 2))))
    path = "{dir}/%s.json" % name
    files[name + ".json"] = _doc_text(rank, cones, boundary, name)
    return path, cones, boundary

  for b in range(CLI_BLOCKS):
    tag = "b%02d" % b
    f2, c2, _ = doc(tag + "-fan2", 2, False)
    f3, c3, _ = doc(tag + "-fan3", 3, False)
    f4, c4, _ = doc(tag + "-fan4", 4, False)
    p2, q2, b2 = doc(tag + "-pair2", 2, True)
    p3, q3, b3 = doc(tag + "-pair3", 3, True)
    p4, q4, b4 = doc(tag + "-pair4", 4, True)
    ops.append({"argv": ["check", f2],
                "lines": _check_lines(tag + "-fan2", 2, c2, None)})
    ops.append({"argv": ["check", f3],
                "lines": _check_lines(tag + "-fan3", 3, c3, None)})
    ops.append({"argv": ["check", f4],
                "lines": _check_lines(tag + "-fan4", 4, c4, None)})
    ops.append({"argv": ["check", p3],
                "lines": _check_lines(tag + "-pair3", 3, q3, b3)})
    ops.append({"argv": ["strata", p2], "lines": _strata_lines(q2, b2, 2)})
    ops.append({"argv": ["strata", p4], "lines": _strata_lines(q4, b4, 4)})
    # write commands, each followed by a read of what it wrote
    tau = _random_face(rng, c3)
    sub, center = _star(c3, tau)
    out = "{dir}/%s-sub3.json" % tag
    ops.append({"argv": ["subdivide", f3, "--star", "--center=%s"
                         % ",".join(map(str, center)), "-o", out],
                "writes": out, "cones": _cone_key(sub), "boundary": None})
    ops.append({"argv": ["check", out],
                "lines": _check_lines(tag + "-fan3", 3, sub, None)})
    source, cones, boundary, rank = ((p2, q2, b2, 2) if b % 2 == 0
                                     else (p4, q4, b4, 4))
    tau = _random_face(rng, cones, must_meet=boundary)
    blown, center = _star(cones, tau)
    blown_boundary = boundary | {center}
    out = "{dir}/%s-blowup.json" % tag
    ops.append({"argv": ["blowup", source, "--center=%s"
                         % ",".join(map(str, center)), "-o", out],
                "writes": out, "cones": _cone_key(blown),
                "boundary": sorted(list(r) for r in blown_boundary)})
    ops.append({"argv": ["strata", out],
                "lines": _strata_lines(blown, blown_boundary, rank)})
    out = "{dir}/%s-render.svg" % tag
    ops.append({"argv": ["render", f2, "-o", out], "svg": out,
                "svg_rays": len(_rays_of(c2)), "svg_wedges": len(c2)})
    ops.append(_hom_op(rng, 2 * b))
    ops.append(_hom_op(rng, 2 * b + 1))
    ops.append({"argv": ["gallery", gallery[b % len(gallery)]],
                "lines": ["1/1 cases ok"]})
    for j in (2 * b, 2 * b + 1):
      rel = fixtures[j % len(fixtures)]
      name = "fixture-" + rel.replace("/", "-")
      with open(os.path.join(fixture_dir, rel), encoding="utf-8") as handle:
        files[name] = handle.read()
      ops.append({"argv": ["check", "{dir}/" + name],
                  "code": _fixture_expectation(rel)})
  for op in ops:
    op.setdefault("kind", "cli")
    op.setdefault("code", 0)
  for name, text in files.items():
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
      handle.write(text)
  return ops


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--workload", required=True,
                      choices=["resolve2d", "cones", "cli"])
  parser.add_argument("--seed", type=int, required=True)
  parser.add_argument("--out", required=True, help="directory to write into")
  args = parser.parse_args(argv)
  sys.path.insert(0, os.path.join(ROOT, "src"))
  rng = random.Random("%s-%d" % (args.workload, args.seed))
  os.makedirs(args.out, exist_ok=True)
  if args.workload == "resolve2d":
    ops = gen_resolve2d(rng)
  elif args.workload == "cones":
    ops = gen_cones(rng)
  else:
    ops = gen_cli(rng, args.out)
  reach = gen_reach(args.out) if args.workload == "cones" else []
  with open(os.path.join(args.out, "inputs.json"), "w") as handle:
    json.dump({"workload": args.workload, "seed": args.seed, "ops": ops,
               "reach": reach}, handle)


if __name__ == "__main__":
  main()
