"""Command-line behavior: documents, subcommands, exit codes, SVG output."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

import logfan
from logfan import cli as cli_module
from logfan.cli import (
    MAX_RANK,
    CliError,
    FanDocument,
    execute,
    parse_document,
    render_svg,
    serialize_document,
)
from logfan.fan import MAX_SEARCH_STARS
from logfan.gallery import CASES
from logfan.kato import MAX_PRIME_TEST
from logfan.monoid import MAX_MEMBER_NODES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
VALID = sorted(FIXTURES.glob("*.json"))
INVALID = sorted((FIXTURES / "invalid").glob("*.json"))


def run(argv):
  out, err = io.StringIO(), io.StringIO()
  with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = execute(argv)
  return code, out.getvalue(), err.getvalue()


def test_fixture_corpus_is_nonempty():
  assert len(VALID) >= 8
  assert len(INVALID) >= 5


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_serialize_parse_identity_is_bit_exact(path):
  text = path.read_text(encoding="utf-8")
  assert serialize_document(parse_document(text)) == text


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
def test_invalid_documents_are_rejected(path):
  with pytest.raises(CliError):
    parse_document(path.read_text(encoding="utf-8"))
  code, _, err = run(["check", str(path)])
  assert code == 2
  assert "error:" in err


# the exact message of each parse error, which the commands print after
# "error: " and the file name; the field names in them are built only when
# the error is raised
INVALID_MESSAGES = {
    "bool-rank": "field rank: expected an integer, got True",
    "float-entry": "floating point number 1.5 is not allowed",
    "missing-rank": "field rank: missing",
    "string-ray": "field max_cones[0][0][1]: expected an integer, got '0'",
    "truncated": "line 2 column 1: Expecting property name enclosed in "
                 "double quotes",
    "unknown-field": "unknown field 'colour'",
}

DEEP_MESSAGES = [
    ('{"rank": 3, "max_cones": [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1], 7]]}',
     "field max_cones[1][2]: expected a ray (list of integers)"),
    ('{"rank": 3, "max_cones": [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1], [1, 1]]]}',
     "field max_cones[1][2]: ray length 2 does not match rank 3"),
    ('{"rank": 3, "max_cones": [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1], '
     '[1, 1, null]]]}',
     "field max_cones[1][2][2]: expected an integer, got None"),
    ('{"rank": 3, "max_cones": [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1], '
     '[1, true, 2]]]}',
     "field max_cones[1][2][1]: expected an integer, got True"),
    ('{"rank": 2, "max_cones": [], "boundary_rays": [[1, 0], "x"]}',
     "field boundary_rays[1]: expected a ray (list of integers)"),
    ('{"rank": 2, "max_cones": [], "boundary_rays": [[1, 0], [0, 1], '
     '[1, 2, 3]]}',
     "field boundary_rays[2]: ray length 3 does not match rank 2"),
    ('{"rank": 2, "max_cones": [], "boundary_rays": [[1, 0], [0, 1], '
     '[1, "2"]]}',
     "field boundary_rays[2][1]: expected an integer, got '2'"),
]


@pytest.mark.parametrize("path", INVALID, ids=lambda p: p.stem)
def test_invalid_documents_give_their_exact_message(path):
  with pytest.raises(CliError) as err:
    parse_document(path.read_text(encoding="utf-8"))
  assert str(err.value) == INVALID_MESSAGES[path.stem]
  code, out, text = run(["check", str(path)])
  assert (code, out) == (2, "")
  assert text == "error: %s: %s\n" % (path, INVALID_MESSAGES[path.stem])


@pytest.mark.parametrize("text, message", DEEP_MESSAGES)
def test_a_bad_ray_deep_in_a_document_gives_its_exact_message(text, message):
  with pytest.raises(CliError) as err:
    parse_document(text)
  assert str(err.value) == message


def test_parse_rejects_non_object():
  with pytest.raises(CliError, match="JSON object"):
    parse_document("[1, 2]")


def test_deep_nesting_exits_2_naming_the_nesting(tmp_path):
  text = '{"rank": 2, "max_cones": %s%s}' % ("[" * 1200, "]" * 1200)
  assert 2400 <= len(text) <= 2500
  path = tmp_path / "deep.json"
  path.write_text(text)
  code, out, err = run(["check", str(path)])
  assert code == 2
  assert out == ""
  assert "nesting" in err and "Traceback" not in err


def test_rank_above_the_limit_is_refused_at_once(tmp_path):
  text = '{"rank": 1000, "max_cones": []}\n'
  assert len(text) == 32
  path = tmp_path / "wide.json"
  path.write_text(text)
  start = time.perf_counter()
  code, _, err = run(["check", str(path)])
  assert time.perf_counter() - start < 1.0
  assert code == 2
  assert "limit of %d" % MAX_RANK in err
  path.write_text('{"rank": %d, "max_cones": []}\n' % MAX_RANK)
  assert run(["check", str(path)])[0] == 0


def test_parse_rejects_bad_boundary_and_metadata():
  with pytest.raises(CliError, match="boundary_rays"):
    parse_document('{"rank": 1, "max_cones": [], "boundary_rays": 3}')
  with pytest.raises(CliError, match="metadata"):
    parse_document('{"rank": 1, "max_cones": [], "metadata": 7}')
  with pytest.raises(CliError, match="positive count"):
    parse_document('{"rank": 0, "max_cones": []}')


def test_serializer_omits_absent_boundary():
  doc = FanDocument(2, (((1, 0),),), None, "one ray")
  text = serialize_document(doc)
  assert "boundary_rays" not in text
  assert parse_document(text) == doc


def test_serializer_keeps_boundary():
  doc = FanDocument(2, (((1, 0), (0, 1)),), ((1, 0),), "half boundary")
  assert parse_document(serialize_document(doc)) == doc


def test_check_valid_fan_exits_zero():
  code, out, _ = run(["check", str(FIXTURES / "orthant.json")])
  assert code == 0
  assert "valid: yes" in out
  assert "complete: no" in out
  assert "smooth: yes" in out


def test_check_complete_fan_reports_complete():
  code, out, _ = run(["check", str(FIXTURES / "quadrants.json")])
  assert code == 0
  assert "complete: yes" in out


def test_check_singular_fan_reports_but_passes():
  code, out, _ = run(["check", str(FIXTURES / "singular.json")])
  assert code == 0
  assert "smooth: no" in out


RANK_20 = ('{"rank":20,"max_cones":[[%s]]}' % ",".join(
    "[%s]" % ",".join(map(str, r)) for r in
    [(1, 1) + (0,) * 18, (1, -1) + (0,) * 18]
    + [tuple(int(i == j) for j in range(20)) for i in range(2, 10)]))


def test_check_decides_smoothness_of_a_rank_20_cone_at_once(tmp_path):
  # 448 bytes; smoothness by the gcd of the C(20, 10) maximal minors took
  # 33 s on this cone
  assert len(RANK_20) == 448
  path = tmp_path / "rank20.json"
  path.write_text(RANK_20)
  start = time.perf_counter()
  code, out, _ = run(["check", str(path)])
  assert time.perf_counter() - start < 1.0
  assert code == 0
  assert "smooth: no" in out


def test_check_overlap_fails_and_names_the_pair():
  code, out, _ = run(["check", str(FIXTURES / "overlap.json")])
  assert code == 1
  assert "valid: no" in out
  assert "intersection not a common face" in out
  assert "(1, 0), (1, 2)" in out and "(0, 1), (1, 1)" in out


def test_check_pair_reports_boundary():
  code, out, _ = run(["check", str(FIXTURES / "box-pair.json")])
  assert code == 0
  assert "boundary: 2 rays, subfan with" in out


def test_check_bad_boundary_ray_is_a_check_failure(tmp_path):
  doc = FanDocument(2, (((1, 0), (0, 1)),), ((1, 1),), "loose boundary")
  path = tmp_path / "loose.json"
  path.write_text(serialize_document(doc))
  code, out, _ = run(["check", str(path)])
  assert code == 1
  assert "boundary problem" in out


def test_subdivide_orthant_at_full_cone():
  code, out, _ = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--star", "--center=1,1"])
  assert code == 0
  want = FanDocument(2, (((0, 1), (1, 1)), ((1, 0), (1, 1))), None, "orthant")
  assert out == serialize_document(want)


def test_subdivide_writes_file(tmp_path):
  out_path = tmp_path / "sub.json"
  code, out, _ = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--star", "--center=1,1", "-o", str(out_path)])
  assert code == 0
  assert out == ""
  doc = parse_document(out_path.read_text())
  assert len(doc.max_cones) == 2


def test_subdivide_requires_a_mode():
  code, _, err = run(["subdivide", str(FIXTURES / "orthant.json")])
  assert code == 2
  assert "--star" in err


def test_subdivide_center_must_match_rank():
  code, _, err = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--star", "--center=1,1,1"])
  assert code == 2
  assert "does not match rank" in err


def test_subdivide_center_outside_support():
  code, _, err = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--star", "--center=-1,0"])
  assert code == 2
  assert "relative interior of no cone" in err


def test_subdivide_refine_finds_two_step_path(tmp_path):
  goal = FanDocument(2, (((1, 0), (2, 1)), ((1, 1), (2, 1)), ((0, 1), (1, 1))),
                     None, "twice subdivided")
  goal_path = tmp_path / "goal.json"
  goal_path.write_text(serialize_document(goal))
  code, out, _ = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--refine", str(goal_path)])
  assert code == 0
  assert parse_document(out).fan() == goal.fan()


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
def test_subdivide_refine_rejects_a_fan_that_overlaps_itself(tmp_path, optimize):
  overlapping = FanDocument(2, (((1, 0), (0, 1)), ((1, 1), (-1, 0))), None,
                            "overlapping smooth cones")
  upper = FanDocument(2, (((1, 0), (0, 1)), ((0, 1), (-1, 0))), None,
                      "upper half plane")
  paths = []
  for name, doc in (("overlapping", overlapping), ("upper", upper)):
    paths.append(tmp_path / ("%s.json" % name))
    paths[-1].write_text(serialize_document(doc))
  proc = _logfan(optimize, ["subdivide", str(paths[0]),
                            "--refine", str(paths[1])])
  assert proc.returncode == 2
  assert proc.stdout == ""
  assert proc.stderr.startswith("error: the fan to refine is not a fan: "
                                "intersection not a common face")
  assert "Traceback" not in proc.stderr


def _unit(i, d):
  return tuple(int(i == j) for j in range(d))


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
def test_subdivide_refine_refuses_a_search_past_the_budget(tmp_path, optimize):
  # the rank-10 orthant against its star subdivision at the whole cone: the
  # breadth-first search stars every face of dimension >= 2 before the
  # whole cone, and once took 13 s; at rank 13 it ran past 60 s
  d = 10
  units = [_unit(i, d) for i in range(d)]
  orthant = FanDocument(d, (tuple(units),), None, "orthant")
  goal = FanDocument(d, tuple(tuple(units[:i] + units[i + 1:] + [(1,) * d])
                              for i in range(d)), None, "starred orthant")
  paths = []
  for name, doc in (("orthant", orthant), ("goal", goal)):
    paths.append(tmp_path / ("%s.json" % name))
    paths[-1].write_text(serialize_document(doc))
  t0 = time.perf_counter()
  proc = _logfan(optimize, ["subdivide", str(paths[0]),
                            "--refine", str(paths[1])])
  assert time.perf_counter() - t0 < 10.0
  assert proc.returncode == 2
  assert proc.stdout == ""
  assert proc.stderr == ("error: refinement search capped at %d star "
                         "subdivisions\n" % MAX_SEARCH_STARS)


def _logfan(optimize, argv):
  """Run logfan in a new interpreter, with python's -O if optimize asks."""
  env = dict(os.environ)
  src = str(pathlib.Path(logfan.__file__).parent.parent)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  return subprocess.run([sys.executable] + optimize + ["-m", "logfan"] + argv,
                        capture_output=True, text=True, env=env)


NESTED = FanDocument(2, (((0, 1), (1, 0)), ((-1, 1), (1, 1))), None,
                     "quadrant and a cone across it")
SMOOTH_OVERLAP = FanDocument(2, (((1, 0), (0, 1)), ((1, 1), (-1, 0))),
                             ((1, 0),), "overlapping smooth pair")


# each input fails check, so the write commands must not write a document
@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("doc, argv, pair", [
    (NESTED, ["subdivide", "--star", "--center=2,1"],
     "((-1, 1), (1, 1)) vs ((0, 1), (1, 0))"),
    (None, ["subdivide", "--star", "--center=1,1"],
     "((0, 1), (1, 1)) vs ((1, 0), (1, 2))"),
    (SMOOTH_OVERLAP, ["blowup", "--center=1,0"],
     "((-1, 0), (1, 1)) vs ((0, 1), (1, 0))"),
], ids=["nested-subdivide", "overlap-subdivide", "overlap-blowup"])
def test_write_commands_refuse_a_non_fan(tmp_path, optimize, doc, argv, pair):
  if doc is None:
    path = FIXTURES / "overlap.json"
  else:
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(doc))
  assert run(["check", str(path)])[0] == 1
  out = tmp_path / "out.json"
  proc = _logfan(optimize, argv[:1] + [str(path)] + argv[1:] + ["-o", str(out)])
  assert proc.returncode == 2
  assert proc.stdout == ""
  assert proc.stderr == ("error: %s is not a fan: intersection not a common "
                         "face -- %s\n" % (path, pair))
  assert not out.exists()


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
def test_strata_refuses_a_non_fan(tmp_path, optimize):
  path = tmp_path / "doc.json"
  path.write_text(serialize_document(SMOOTH_OVERLAP))
  assert run(["check", str(path)])[0] == 1
  proc = _logfan(optimize, ["strata", str(path)])
  assert proc.returncode == 2
  assert proc.stdout == ""
  assert proc.stderr == ("error: %s is not a fan: intersection not a common "
                         "face -- ((-1, 0), (1, 1)) vs ((0, 1), (1, 0))\n"
                         % path)


def test_subdivide_refine_respects_depth_env(tmp_path, monkeypatch):
  goal = FanDocument(2, (((1, 0), (2, 1)), ((1, 1), (2, 1)), ((0, 1), (1, 1))),
                     None, "twice subdivided")
  goal_path = tmp_path / "goal.json"
  goal_path.write_text(serialize_document(goal))
  monkeypatch.setenv("LOGFAN_DEPTH", "1")
  code, out, _ = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--refine", str(goal_path)])
  assert code == 1
  assert "no refinement found within depth 1" in out
  monkeypatch.setenv("LOGFAN_DEPTH", "soon")
  code, _, err = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--refine", str(goal_path)])
  assert code == 2
  assert "LOGFAN_DEPTH" in err


def test_subdivide_refine_excludes_star():
  code, _, err = run(["subdivide", str(FIXTURES / "orthant.json"),
                      "--star", "--center=1,1",
                      "--refine", str(FIXTURES / "orthant.json")])
  assert code == 2
  assert "cannot be combined" in err


def test_blowup_box_matches_recorded_fixture():
  code, out, _ = run(["blowup", str(FIXTURES / "box-pair.json"),
                      "--center=1,1"])
  assert code == 0
  assert out == (FIXTURES / "blown-pair.json").read_text(encoding="utf-8")


def test_blowup_needs_boundary():
  code, _, err = run(["blowup", str(FIXTURES / "orthant.json"),
                      "--center=1,1"])
  assert code == 2
  assert "boundary_rays" in err


def test_blowup_rejects_disjoint_center(tmp_path):
  doc = FanDocument(2, (((1, 0), (0, 1)),), ((0, 1),), "one side")
  path = tmp_path / "oneside.json"
  path.write_text(serialize_document(doc))
  code, _, err = run(["blowup", str(path), "--center=1,0"])
  assert code == 2
  assert "non-admissible" in err


def test_strata_box():
  code, out, _ = run(["strata", str(FIXTURES / "box-pair.json")])
  assert code == 0
  assert out == "a=1: 2\na=2: 1\n"


def test_strata_blown_pair():
  code, out, _ = run(["strata", str(FIXTURES / "blown-pair.json")])
  assert code == 0
  assert out == "a=1: 3\na=2: 2\n"


def test_strata_projective_pair():
  code, out, _ = run(["strata", str(FIXTURES / "proj-pair.json")])
  assert code == 0
  assert out == "a=1: 1\na=2: 0\n"


def test_strata_needs_boundary():
  code, _, _ = run(["strata", str(FIXTURES / "quadrants.json")])
  assert code == 2


def test_hom_identity_like_report():
  code, out, _ = run(["hom", "--src=1", "--dst=1", "--matrix=3"])
  assert code == 0
  assert "kummer: yes" in out
  assert "exact: yes" in out
  assert "log smooth (char 0): yes" in out
  assert "log etale (char 0): yes" in out


def test_hom_char_divides_degree():
  code, out, _ = run(["hom", "--src=1", "--dst=1", "--matrix=3",
                      "--char", "3"])
  assert code == 0
  assert "log smooth (char 3): no" in out
  assert "log etale (char 3): no" in out


def test_hom_fold_is_not_etale():
  code, out, _ = run(["hom", "--src=1,0;0,1", "--dst=1", "--matrix=1,1"])
  assert code == 0
  assert "log etale (char 0): no" in out


def test_hom_rejects_bad_char():
  code, _, err = run(["hom", "--src=1", "--dst=1", "--matrix=1",
                      "--char", "4"])
  assert code == 2
  assert "0 or prime" in err


def test_hom_answers_a_large_char_quickly():
  argv = ["hom", "--src=1,0;0,1", "--dst=1,0;0,1", "--matrix=1,0;0,1",
          "--char", "1000000000000000003"]
  t0 = time.perf_counter()
  code, out, _ = run(argv)
  assert time.perf_counter() - t0 < 1.0
  assert code == 0
  assert "log smooth (char 1000000000000000003): yes" in out


def test_hom_rejects_a_char_above_the_primality_limit():
  code, _, err = run(["hom", "--src=1", "--dst=1", "--matrix=1",
                      "--char", str(10**25)])
  assert code == 2
  assert "below %d" % MAX_PRIME_TEST in err


def test_hom_rejects_image_outside_target():
  code, _, err = run(["hom", "--src=1", "--dst=2", "--matrix=1"])
  assert code == 2
  assert "outside the target monoid" in err


def test_hom_rejects_ragged_vectors():
  code, _, err = run(["hom", "--src=1,0;1", "--dst=1", "--matrix=1,1"])
  assert code == 2
  assert "differ in length" in err


@pytest.mark.parametrize("n", [3200, 12800])
def test_hom_refuses_a_membership_search_past_the_budget(n):
  # about 100 bytes of arguments: the search for (m, m + 1) in this monoid
  # takes a number of steps in proportion to m.  It once took 7 s at
  # m = 3200 and hung at 12800, which it now answers (test_monoid.py), so
  # both are scaled by 10^26 to stay past the budget
  m = n * 10 ** 26
  argv = ["hom", "--src=%d,%d" % (m, m + 1), "--dst=1,0;1,2;2,1;3,5",
          "--matrix=1,0;0,1"]
  t0 = time.perf_counter()
  code, out, err = run(argv)
  assert time.perf_counter() - t0 < 10.0
  assert code == 2
  assert out == ""
  assert "capped at %d nodes" % MAX_MEMBER_NODES in err


def test_hom_prints_nothing_when_an_answer_is_refused():
  # the source maps into the target, is_kummer answers, and then is_exact
  # refuses the Hilbert basis of the preimage cone
  code, out, err = run(["hom", "--src=30,31", "--dst=1,0;1,2;2,1;3,5",
                        "--matrix=1,0;0,1"])
  assert code == 2
  assert out == ""
  assert "Hilbert basis capped" in err


def test_gallery_full_run():
  code, out, _ = run(["gallery"])
  assert code == 0
  lines = out.splitlines()
  assert "14/14 groups" in lines
  assert lines[-1] == "9/9 cases ok"


def test_gallery_single_case():
  code, out, _ = run(["gallery", "rank2-covers"])
  assert code == 0
  assert out.splitlines()[0] == "[ok] rank2-covers"
  assert out.splitlines()[-1] == "1/1 cases ok"


@pytest.mark.parametrize("name", sorted(CASES))
def test_gallery_mutation_exits_one(name):
  code, out, _ = run(["gallery", name, "--mutate", name])
  assert code == 1
  assert "0/1 cases ok" in out


def test_gallery_unknown_case():
  code, _, err = run(["gallery", "rank3-covers"])
  assert code == 2
  assert "unknown gallery case" in err


def test_gallery_mutate_must_be_selected():
  code, _, err = run(["gallery", "rank2-covers", "--mutate",
                      "zero-block-groups"])
  assert code == 2
  assert "not among the selected cases" in err


def test_render_box_pair(tmp_path):
  out_path = tmp_path / "box.svg"
  code, _, _ = run(["render", str(FIXTURES / "box-pair.json"),
                    "-o", str(out_path)])
  assert code == 0
  root = ET.fromstring(out_path.read_text(encoding="utf-8"))
  assert root.tag.endswith("svg")
  assert root.get("version") == "1.1"
  ns = "{http://www.w3.org/2000/svg}"
  rays = {el.get("data-ray") for el in root.iter(ns + "line")}
  assert rays == {"0,1", "1,0"}
  widths = {el.get("stroke-width") for el in root.iter(ns + "line")}
  assert widths == {"4.0"}
  assert len(list(root.iter(ns + "path"))) == 1


def test_render_endpoints_match_document_rays(tmp_path):
  out_path = tmp_path / "quad.svg"
  code, _, _ = run(["render", str(FIXTURES / "quadrants.json"),
                    "-o", str(out_path)])
  assert code == 0
  root = ET.fromstring(out_path.read_text(encoding="utf-8"))
  ns = "{http://www.w3.org/2000/svg}"
  drawn = {tuple(int(c) for c in el.get("data-ray").split(","))
           for el in root.iter(ns + "line")}
  doc = parse_document((FIXTURES / "quadrants.json").read_text())
  assert drawn == {r for cone in doc.max_cones for r in cone}
  widths = {el.get("stroke-width") for el in root.iter(ns + "line")}
  assert widths == {"1.5"}


def test_render_is_deterministic():
  doc = parse_document((FIXTURES / "box-pair.json").read_text())
  assert render_svg(doc) == render_svg(doc)


def test_render_escapes_the_title():
  doc = FanDocument(2, (((1, 0), (0, 1)),), None, 'a<b & "c">')
  assert '<title>a&lt;b &amp; "c"&gt;</title>' in render_svg(doc)


def _render_cone(tmp_path, name, cone):
  path = tmp_path / (name + ".json")
  path.write_text(serialize_document(
      FanDocument(2, (tuple(map(tuple, cone)),))))
  out = tmp_path / (name + ".svg")
  code, _, err = run(["render", str(path), "-o", str(out)])
  assert code == 0, err
  assert "Traceback" not in err
  return out.read_text(encoding="utf-8")


# 10^400 is past the float range, and math.hypot once raised OverflowError
# on it, so render exited 1 with a traceback; 10^307 fits a float, but
# 180 * 10^307 does not, and the line once ended at "inf"
@pytest.mark.parametrize("huge", [10 ** 400, 10 ** 307], ids=["1e400", "1e307"])
def test_render_draws_rays_with_huge_entries(tmp_path, huge):
  big = [[1, 0], [3 * huge + 1, 4 * huge]]
  svg = _render_cone(tmp_path, "big", big)
  assert "inf" not in svg and "nan" not in svg
  # the huge ray points where (3, 4) points, and is labelled exactly
  label = "%d,%d" % tuple(big[1])
  assert svg.replace(label, "3,4") == _render_cone(tmp_path, "small",
                                                   [[1, 0], [3, 4]])
  # entries the float arithmetic holds are drawn as before
  assert cli_module._drawn((10 ** 300, 1)) == (10 ** 300, 1)


@pytest.mark.parametrize("cone", [
    [[1, 10 ** 200], [-1, -(10 ** 200 - 1)]],
    [[1, 10 ** 200], [-1, -(10 ** 200 + 1)]],
    [[0, 1], [-2, 1 - 10 ** 400]],
], ids=["left", "right", "past-floats"])
def test_render_draws_a_cone_whose_rays_are_opposite_in_floats(tmp_path,
                                                               cone):
  # the unit vectors of the rays cancel, and the wedge's middle point once
  # divided by zero; the wedge is drawn as the half-plane on the cone's side
  svg = _render_cone(tmp_path, "opposite", cone)
  (p, q), (r, t) = cone
  side = "30.00,210.00" if p * t > q * r else "390.00,210.00"
  assert " L%s L" % side in svg


def test_import_pulls_in_no_url_or_http_modules():
  env = dict(os.environ)
  src = str(pathlib.Path(logfan.__file__).parent.parent)
  env["PYTHONPATH"] = os.pathsep.join(
      p for p in (src, env.get("PYTHONPATH")) if p)
  script = ("import sys, logfan.cli; print(sorted(m for m in ('xml.sax', "
            "'urllib.request', 'http.client') if m in sys.modules))")
  proc = subprocess.run([sys.executable, "-c", script],
                        capture_output=True, text=True, env=env)
  assert proc.returncode == 0, proc.stderr
  assert proc.stdout == "[]\n"


@pytest.mark.parametrize("cone", [
    [[1, 0], [-1, 0], [0, 1]],
    [[1, 0], [-1, 1], [-1, -1]],
], ids=["half-plane", "plane"])
def test_render_rejects_cones_with_lineality(tmp_path, cone):
  path = tmp_path / "lineality.json"
  path.write_text(serialize_document(FanDocument(2, (tuple(map(tuple, cone)),))))
  code, _, err = run(["render", str(path), "-o", str(tmp_path / "out.svg")])
  assert code == 2
  assert "max_cones[0] %s is not strictly convex" % cone in err
  assert "strictly convex cones only" in err
  assert not (tmp_path / "out.svg").exists()


def test_render_rejects_other_ranks():
  code, _, err = run(["render", str(FIXTURES / "rank1.json"),
                      "-o", "/dev/null"])
  assert code == 2
  assert "rank 2 only" in err


def test_unknown_subcommand_exits_two():
  code, _, _ = run(["frobnicate"])
  assert code == 2


def test_missing_file_exits_two():
  code, _, err = run(["check", "no-such-file.json"])
  assert code == 2
  assert "cannot read" in err


def test_module_entry_point():
  proc = subprocess.run(
      [sys.executable, "-m", "logfan", "gallery", "zero-block-groups"],
      capture_output=True, text=True)
  assert proc.returncode == 0
  assert "14/14 groups" in proc.stdout.splitlines()


@pytest.mark.parametrize("cones", [
    [[[1, 0], [0, 1], [0, -1]], [[-1, 0], [-1, 1]]],
    [[[1, 0], [0, 1], [0, -1]]],
], ids=["with-another-cone", "alone"])
def test_check_cone_with_lineality_is_a_check_failure(tmp_path, cones):
  path = tmp_path / "half.json"
  path.write_text('{"rank": 2, "max_cones": %s}' % cones)
  code, out, err = run(["check", str(path)])
  assert code == 1
  assert err == ""
  assert "valid: no" in out
  assert "violation: not strictly convex -- ((1, 0),) vs ((0, 1),)" in out
  assert "smooth: no" in out


def test_parser_is_built_once_per_process(monkeypatch):
  import logfan.cli
  builds = []

  def counted():
    builds.append(1)
    return build()

  build = logfan.cli._build_parser
  monkeypatch.setattr(logfan.cli, "_parser", None)
  monkeypatch.setattr(logfan.cli, "_build_parser", counted)
  outcomes = [run(argv)[0] for argv in (
      ["check", str(FIXTURES / "orthant.json")], ["frobnicate"],
      ["check", str(FIXTURES / "overlap.json")],
      ["check", str(FIXTURES / "orthant.json")])]
  assert outcomes == [0, 2, 1, 0]
  assert builds == [1]


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_an_arithmetic_failure_exits_2_with_no_traceback(monkeypatch, error):
  # exit 1 means "check failed", so a command that fails in arithmetic
  # must exit 2, as a parse or precondition error does
  def failing(args):
    raise error("raised inside check")

  monkeypatch.setattr(cli_module, "_cmd_check", failing)
  monkeypatch.setattr(cli_module, "_parser", None)  # rebuilt with failing
  code, out, err = run(["check", str(FIXTURES / "orthant.json")])
  assert code == 2
  assert "Traceback" not in err
  assert err.startswith("error:") and "raised inside check" in err
