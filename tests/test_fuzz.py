"""Fuzzing the command line: every check, strata, subdivide --star and hom
call exits 0, 1 or 2, within a deadline per example.

Three families of input: documents of rank 1 to 24 whose cones have at
most rank sparse rays (at most three nonzero entries, each in -2..2),
documents of rank at most 5 with up to 8 rays per cone, entries in -2..2,
and junk vector strings for hom.  The examples are derandomized, so every
run tries the same inputs.  Two documents are pinned as examples: the
448-byte rank-20 one, whose smoothness by maximal minors took 33 s, and
the rank-24 orthant with every ray on the boundary, whose strata, listed
as subsets, would number 2^24.  A hom call is pinned too: its membership
search took 18 s within the node budget while the budget counted only
distinct nodes.  Tier-1 runs this file under python and under python -O.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from logfan.cli import execute

FUZZ = settings(max_examples=150, deadline=5000, derandomize=True,
                database=None)

RANK_20 = {"rank": 20, "max_cones": [
    [[1, 1] + [0] * 18, [1, -1] + [0] * 18]
    + [[int(i == j) for j in range(20)] for i in range(2, 10)]]}
UNITS_24 = [[int(i == j) for j in range(24)] for i in range(24)]
ORTHANT_24 = {"rank": 24, "max_cones": [UNITS_24], "boundary_rays": UNITS_24}


def _exit_code(argv) -> int:
  out, err = io.StringIO(), io.StringIO()
  with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = execute(argv)
  assert code in (0, 1, 2), (argv, code, err.getvalue())
  return code


def _sparse_ray(rank):
  return st.dictionaries(st.integers(0, rank - 1), st.integers(-2, 2),
                         max_size=3).map(
                             lambda d: [d.get(i, 0) for i in range(rank)])


def _dense_ray(rank):
  return st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)


@st.composite
def _cases(draw, ranks, ray, max_rays):
  """A pair document (every cone's rays may be boundary rays) and a center
  for subdivide: the sum of a cone's rays, or a ray of its own."""
  rank = draw(ranks)
  cones = draw(st.lists(st.lists(ray(rank), max_size=max_rays(rank)),
                        min_size=1, max_size=3))
  rays = [r for c in cones for r in c]
  boundary = draw(st.lists(st.sampled_from(rays))) if rays else []
  sums = [[sum(col) for col in zip(*c)] for c in cones if c]
  center = draw(st.sampled_from(sums) | ray(rank) if sums else ray(rank))
  return {"rank": rank, "max_cones": cones, "boundary_rays": boundary}, center


def _run_document_commands(doc, center):
  with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "doc.json")
    with open(path, "w", encoding="utf-8") as handle:
      json.dump(doc, handle)
    _exit_code(["check", path])
    _exit_code(["strata", path])
    _exit_code(["subdivide", path, "--star",
                "--center=%s" % ",".join(map(str, center))])


@FUZZ
@given(case=_cases(st.integers(1, 24), _sparse_ray, lambda rank: rank))
@example(case=(RANK_20, [2, 0] + [1] * 8 + [0] * 10))
@example(case=(ORTHANT_24, [1] * 24))
def test_sparse_documents_up_to_rank_24_exit_0_1_or_2(case):
  _run_document_commands(*case)


@FUZZ
@given(case=_cases(st.integers(1, 5), _dense_ray, lambda rank: 8))
def test_documents_up_to_rank_5_with_8_rays_exit_0_1_or_2(case):
  _run_document_commands(*case)


def _vector_text(rows):
  return ";".join(",".join(map(str, r)) for r in rows)


def _vectors(rank, count):
  return st.lists(st.lists(st.integers(-3, 5), min_size=rank, max_size=rank),
                  min_size=count, max_size=count)


_JUNK = st.text(alphabet="0123456789-,; ", max_size=12) | st.text(max_size=8)


@st.composite
def _hom_arguments(draw):
  """--src, --dst and --matrix, each well-formed or junk.  Well-formed,
  the matrix maps the source rank to the target rank and the target
  generators include the images of the source ones, so that the monoid
  code runs past the parser."""
  r1, r2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
  src = draw(st.integers(1, 4).flatmap(lambda n: _vectors(r1, n)))
  matrix = draw(_vectors(r1, r2))
  images = [[sum(a * b for a, b in zip(row, g)) for row in matrix] for g in src]
  dst = draw(st.integers(0, 3).flatmap(lambda n: _vectors(r2, n))) + images
  return [draw(st.just(_vector_text(rows)) | _JUNK)
          for rows in (src, dst, matrix)]


@FUZZ
@given(args=_hom_arguments())
@example(args=["137", "5;9;6;6", "137"])
def test_hom_on_junk_vector_strings_exits_0_1_or_2(args):
  src, dst, matrix = args
  _exit_code(["hom", "--src=" + src, "--dst=" + dst, "--matrix=" + matrix])
