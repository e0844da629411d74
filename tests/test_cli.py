import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from garside import SummitKind, build_context, compute_summit_graph, context_from_token, parse_word
from garside import cli
from garside.cli import build_parser, run

from conftest import A2XA1_MATRIX, FAMILIES, family, random_word


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf(capsys):
    code, out, _ = invoke(capsys, "A2", "nf", "s2 s1 s1 s2")
    assert code == 0 and out.strip() == "Δ^0 · (s2 s1)(s1 s2)"
    code, out, _ = invoke(capsys, "A2", "nf", "s2 s1 s1 s2", "--N", "2")
    assert code == 0 and out.strip() == "Δ^0 · (s2 s1 s1 s2)"
    code, out, _ = invoke(capsys, "A2", "nf", "s1 s2 s1")
    assert out.strip() == "Δ^1"


def test_nf_round_trip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "A2", "nf", "s1 s2^-1 s1 s1")
    code2, out2, _ = invoke(capsys, "A2", "nf", out.strip())
    assert code == code2 == 0 and out == out2
    matrix_file = tmp_path / "a2xa1.json"
    matrix_file.write_text(json.dumps({"matrix": A2XA1_MATRIX}))
    rng = random.Random(3)
    for token in FAMILIES:
        group = str(matrix_file) if token == "A2xA1" else token
        for _ in range(4):
            word = random_word(family(token), rng, 12)
            code, out, _ = invoke(capsys, group, "nf", word, "--N", "1")
            code2, out2, _ = invoke(capsys, group, "nf", out.strip(), "--N", "1")
            assert code == code2 == 0 and out == out2, (token, word)


def test_np_pn_supp(capsys):
    code, out, _ = invoke(capsys, "A2", "np", "s1^-1 s2^-1 s1 s1")
    assert code == 0 and out.startswith("negative:")
    code, out, _ = invoke(capsys, "A2", "pn", "s1 s2 s1^-1")
    assert "positive: Δ^0 · (s1 s2)" in out and "negative: Δ^0 · (s1)" in out
    code, out, _ = invoke(capsys, "A4", "supp", "s1^-1 s3")
    assert out.strip() == "s1 s3"


def test_cycle_ops(capsys):
    code, out, _ = invoke(capsys, "A2", "cycle", "s1 s2 s2")
    assert "result: Δ^1" in out and "conjugator: Δ^0 · (s1 s2)" in out
    code, out, _ = invoke(capsys, "A2", "twist", "s2^-1 s1")
    assert code == 0


def test_summit_dot_and_determinism(capsys):
    code, dot1, _ = invoke(capsys, "A4", "summit", "--kind", "pos", "s1 s2",
                           "--format", "dot")
    code2, dot2, _ = invoke(capsys, "A4", "summit", "--kind", "pos", "s1 s2",
                            "--format", "dot")
    assert code == code2 == 0 and dot1 == dot2
    assert dot1.count("->") == 18
    code, js, _ = invoke(capsys, "A4", "summit", "--kind", "pos", "s1 s2",
                         "--format", "json")
    data = json.loads(js)
    assert len(data["vertices"]) == 6 and len(data["arrows"]) == 18


def test_closure_phi_z_standardize(capsys)  :
    code, out, _ = invoke(capsys, "A4", "closure", "s3 s1 s2 s3^-1")
    assert code == 0 and "base: {s1, s2}" in out and "standardizer: s3" in out
    code, out, _ = invoke(capsys, "A4", "phi", "s1 s2")
    assert out.strip() == "3"
    code, out, _ = invoke(capsys, "A4", "z", "s1,s2")
    assert out.strip() == "Δ^0 · (s1 s2 s1)(s1 s2 s1)"
    code, out, _ = invoke(capsys, "A2", "standardize", "s1 @ s2")
    assert "standardizer: s1" in out and "base: {s2}" in out


def test_pair_commands(capsys):
    code, out, _ = invoke(capsys, "A4", "commute-z", "s1", "s3")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "A4", "adjacent", "s1", "s1,s2")
    assert "condition: P<Q" in out
    code, out, _ = invoke(capsys, "A3", "intersect", "s1,s2", "s2,s3",
                          "--budget", "4", "--format", "json")
    data = json.loads(out)
    assert data["subgroup"]["base"] == [2]
    assert data["certificate"]["verifiedInclusions"] == ["z(R) in P", "z(R) in Q"]
    code, out, _ = invoke(capsys, "A3", "join", "s1", "s2", "--budget", "2",
                          "--format", "json")
    assert json.loads(out)["subgroup"]["base"] == [1, 2]


def test_complex_ball_command(capsys):
    code, out, _ = invoke(capsys, "A4", "complex-ball", "s1", "--radius", "1",
                          "--budget", "0", "--format", "json")
    data = json.loads(out)
    assert any(v["base"] == [1] for v in data["vertices"])
    assert data["edges"]


def test_figures(capsys):
    code, out, _ = invoke(capsys, "A4", "figures", "--format", "json")
    data = json.loads(out)
    assert len(data["positiveConjugates"]["vertices"]) == 6
    assert data["zAction"]["vertices"] == [
        "Δ^0 · (s1 s2 s1)(s1 s2 s1)",
        "Δ^0 · (s2 s3 s2)(s2 s3 s2)",
        "Δ^0 · (s3 s4 s3)(s3 s4 s3)",
    ]


def test_exit_codes(capsys):
    code, _, err = invoke(capsys, "ZZ9", "nf", "s1")
    assert code == 2
    code, _, err = invoke(capsys, "A2", "nf", "s9")
    assert code == 2
    code, _, err = invoke(capsys, "A2", "nf", "not a word")
    assert code == 2


def test_stdin_and_output(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("s1 s2"))
    code, out, _ = invoke(capsys, "A2", "nf", "-")
    assert code == 0 and out.strip() == "Δ^0 · (s1 s2)"
    target = tmp_path / "out.txt"
    code, out, _ = invoke(capsys, "A2", "nf", "s1", "--output", str(target))
    assert code == 0 and out == "" and target.read_text().strip() == "Δ^0 · (s1)"


def test_config_matrix_and_rank_cap(tmp_path, capsys):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"matrix": [[1, 5], [5, 1]], "name": "I2(5)"}))
    code, out, _ = invoke(capsys, str(cfg), "nf", "s1 s2 s1 s2 s1")
    assert code == 0 and out.strip() == "Δ^1"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"rankCap": 2}))
    code, _, err = invoke(capsys, "A4", "--config", str(conf), "nf", "s1")
    assert code == 1 and "cap" in err


def test_root_enumeration_that_never_closes_exits_1(capsys):
    code, out, err = invoke(capsys, "I2(10000)", "nf", "s1")
    lines = err.strip().splitlines()
    assert code == 1 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: I2(10000): root enumeration")


@pytest.mark.parametrize("argv", [
    ("E7", "summit", "--kind", "uss", "s1"),
    ("F4", "summit", "--kind", "rsss", "--N", "2", "s1 s2"),
    ("E7", "summit", "--kind", "uss", "--N", "2", "s1"),
    ("E6", "summit", "--kind", "rsss", "--N", "2", "s1 s2"),
])
def test_budget_exhaustion_exit_code(capsys, argv):
    # The USS and RSSS labels scan the simples: the Coxeter group of E7, and
    # the Delta^2 simples of F4, E6 and E7, outgrow the enumeration budget.
    code, _, err = invoke(capsys, *argv)
    lines = err.strip().splitlines()
    assert code == 3 and "budget" in err.lower()
    assert len(lines) == 1 and lines[0].startswith("budget exhausted:")


@pytest.mark.parametrize("argv", [
    ("E7", "summit", "--kind", "sss", "s1"),
    ("E7", "summit", "s1 s2"),
    ("F4", "summit", "--N", "2", "s1 s2"),
    ("F4", "summit", "--N", "2", "s1 s2 s3"),
    ("E7", "summit", "--N", "2", "s1"),
    ("E6", "summit", "--N", "2", "s1 s2"),
])
def test_sss_graphs_enumerate_nothing(capsys, monkeypatch, argv):
    # SSS labels come by convexity: neither W nor the Delta^N simples are
    # listed, so no enumeration budget applies.
    built = []

    def recording(*args, **kwargs):
        built.append(build_context(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_context", recording)
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == "" and out
    assert len(built) == 1 and built[0]._all_elements is None


@pytest.mark.parametrize("argv", [
    ("E6", "summit", "--kind", "pos", "--N", "2", "s1 s2"),
    ("F4", "summit", "--kind", "pos", "--N", "2", "s1 s2"),
    ("A6", "summit", "--kind", "pos", "--N", "2", "s1 s2 s4 s5"),
    ("E7", "summit", "--kind", "pos", "s1 s2 s3"),
])
def test_positive_conjugate_graphs_enumerate_nothing(capsys, argv):
    # Their labels come by convexity: neither W nor the Delta^N simples are
    # listed, so no enumeration budget applies.  The labels do not depend on N.
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    graph = json.loads(out)
    code, out1, _ = invoke(capsys, *[a for a in argv if a not in ("--N", "2")],
                           "--format", "json")
    assert code == 0 and {**json.loads(out1), "structureExponent": 2} == \
        {**graph, "structureExponent": 2}


def test_e7_positive_conjugates_leave_w_unlisted():
    c = context_from_token("E7")
    graph = compute_summit_graph(parse_word(c, "s1 s2 s3"), SummitKind.POSITIVE_CONJUGATES)
    assert (len(graph.vertices), len(graph.arrows)) == (24, 126)
    assert c._all_elements is None


@pytest.mark.parametrize("argv", [
    ("A3", "intersect", "s1,s2", "s2,s3", "--budget", "25"),
    ("A3", "join", "s1", "s3", "--budget", "12"),
])
def test_runaway_ball_budget_exits_3(capsys, argv):
    # The signed ball grows past its element cap long before this radius.
    code, out, err = invoke(capsys, *argv)
    lines = err.strip().splitlines()
    assert code == 3 and out == ""
    assert len(lines) == 1 and lines[0].startswith("budget exhausted:")


def test_config_budgets(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"budgets": {"intersect": 4}}))
    code, out, _ = invoke(capsys, "A3", "--config", str(conf), "intersect",
                          "s1,s2", "s2,s3", "--format", "json")
    assert code == 0 and json.loads(out)["certificate"]["budget"] == 4
    # an explicit flag still wins
    code, out, _ = invoke(capsys, "A3", "--config", str(conf), "intersect",
                          "s1,s2", "s2,s3", "--budget", "3", "--format", "json")
    assert json.loads(out)["certificate"]["budget"] == 3


def test_parser_reused_across_calls(tmp_path, capsys):
    # One parser serves every call of the process: a sequence of calls through
    # it gives what each call gives with a parser of its own.
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"budgets": {"intersect": 4}}))
    target = tmp_path / "out.txt"
    calls = [
        ("A2", "nf", "s1", "--bogus"),
        ("A3", "intersect", "s1,s2", "s2,s3", "--format", "json"),
        ("A2", "nf", "s1 s2", "--output", str(target)),
        ("A3", "--config", str(conf), "intersect", "s1,s2", "s2,s3"),
        ("A3", "intersect", "s1,s2", "s2,s3"),
        ("A2", "np", "s1^-1 s2"),
    ]

    def outcome(argv):
        target.unlink(missing_ok=True)
        result = invoke(capsys, *argv)
        return result, target.read_text() if target.exists() else None

    shared = [outcome(argv) for argv in calls]
    assert shared[0][0][0] == 2 and shared[2][1] is not None
    for argv, seen in zip(calls, shared):
        build_parser.cache_clear()
        assert outcome(argv) == seen
    assert build_parser() is build_parser()


def assert_one_line_error(code, err, expected_code=2):
    assert code == expected_code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_group_files_exit_2(tmp_path, capsys):
    no_matrix = tmp_path / "no_matrix.json"
    no_matrix.write_text(json.dumps({"name": "I2(5)"}))
    code, _, err = invoke(capsys, str(no_matrix), "nf", "s1")
    assert_one_line_error(code, err)
    assert "matrix" in err
    code, _, err = invoke(capsys, str(tmp_path / "missing.json"), "nf", "s1")
    assert_one_line_error(code, err)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = invoke(capsys, str(bad_json), "nf", "s1")
    assert_one_line_error(code, err)
    code, _, err = invoke(capsys, "A2", "--config", str(bad_json), "nf", "s1")
    assert_one_line_error(code, err)
    # a config file names no group, even when it holds a matrix
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"matrix": [[1, 3], [3, 1]]}))
    code, _, err = invoke(capsys, "config", "--config", str(conf), "nf", "s1")
    assert_one_line_error(code, err)
    assert "unrecognized group token 'config'" in err
    for matrix in ([[1, "x"], ["x", 1]], 5, [[1, 3], None]):
        bad_matrix = tmp_path / "bad_matrix.json"
        bad_matrix.write_text(json.dumps({"matrix": matrix}))
        code, _, err = invoke(capsys, str(bad_matrix), "nf", "s1")
        assert_one_line_error(code, err)


def test_non_spherical_matrix_exits_1(tmp_path, capsys):
    affine = tmp_path / "affine_a2.json"
    affine.write_text(json.dumps({"matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    code, _, err = invoke(capsys, str(affine), "nf", "s1")
    assert_one_line_error(code, err, expected_code=1)


def test_negative_budget_and_radius_exit_2(tmp_path, capsys):
    code, _, err = invoke(capsys, "A3", "intersect", "s1,s2", "s2,s3", "--budget", "-1")
    assert_one_line_error(code, err)
    code, _, err = invoke(capsys, "A3", "join", "s1", "s2", "--budget", "-2")
    assert_one_line_error(code, err)
    code, _, err = invoke(capsys, "A4", "complex-ball", "s1", "--radius", "-1",
                          "--budget", "0")
    assert_one_line_error(code, err)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"budgets": {"complexBall": -1}}))
    code, _, err = invoke(capsys, "A4", "--config", str(conf), "complex-ball", "s1")
    assert_one_line_error(code, err)
    # a budget of 0 stays valid
    code, _, _ = invoke(capsys, "A4", "complex-ball", "s1", "--radius", "0", "--budget", "0")
    assert code == 0


def test_bad_config_values_exit_2(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    for bad in ([1], {"rankCap": "x"}, {"rankCap": 2.5}, {"rankCap": 0},
                {"rankCap": True}, {"budgets": [1]},
                {"budgets": {"intersect": "x"}}, {"budgets": {"intersect": 1.5}}):
        conf.write_text(json.dumps(bad))
        code, _, err = invoke(capsys, "A2", "--config", str(conf), "nf", "s1")
        assert_one_line_error(code, err)
        code, _, err = invoke(capsys, "A3", "--config", str(conf), "intersect",
                              "s1,s2", "s2,s3")
        assert_one_line_error(code, err)


def test_structure_exponent_and_power_bound_checked(capsys):
    for command in ("nf", "cycle", "summit"):
        code, _, err = invoke(capsys, "A2", command, "s1 s2", "--N", "0")
        assert_one_line_error(code, err)
    code, _, err = invoke(capsys, "A2", "summit", "s1 s2", "--power-bound", "-1")
    assert_one_line_error(code, err)


def test_stray_text_after_delta_form_exits_2(capsys):
    for text in ("Δ^1 · (s1) s2", "Δ^1 junk", "D^0 · (s1 s2"):
        code, out, err = invoke(capsys, "A2", "nf", text)
        assert_one_line_error(code, err)
        assert out == ""


def test_complex_ball_centre_checked_at_every_radius(capsys):
    for centre in ("s1,s3", "s1,s2,s3"):
        for radius in ("0", "1"):
            code, out, err = invoke(capsys, "A3", "complex-ball", centre,
                                    "--radius", radius)
            assert_one_line_error(code, err, expected_code=1)
            assert out == ""


def test_threads_flag_is_gone(capsys):
    code, _, err = invoke(capsys, "A2", "nf", "s1", "--threads", "2")
    assert code == 2 and "--threads" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        code, out, err = invoke(capsys, "A2", "closure", "s1", "--output", str(target))
        assert_one_line_error(code, err)
        assert out == ""


def test_dot_format_only_for_graphs(capsys):
    for argv in (("nf", "s1"), ("np", "s1"), ("pn", "s1"), ("supp", "s1"),
                 ("cycle", "s1"), ("decycle", "s1"), ("twist", "s1"),
                 ("closure", "s1"), ("phi", "s1"), ("z", "s1"), ("standardize", "s1"),
                 ("commute-z", "s1", "s2"), ("adjacent", "s1", "s2"),
                 ("intersect", "s1", "s2"), ("join", "s1", "s2")):
        code, out, err = invoke(capsys, "A2", *argv, "--format", "dot")
        assert_one_line_error(code, err)
        assert out == ""
    for argv in (("summit", "s1"), ("complex-ball", "s1"), ("figures",)):
        code, out, _ = invoke(capsys, "A3", *argv, "--format", "dot")
        assert code == 0 and out.startswith(("digraph", "graph"))


def test_closed_stdout_exits_1_without_traceback():
    """A reader that closes the pipe before the output comes (`... | head -0`)
    ends the CLI with exit 1 and nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from garside.cli import main; main()",
         "A3", "summit", "-", "--kind", "su"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    # The word comes on stdin, so the CLI writes only after the pipe is closed.
    _, err = proc.communicate(b"s1 s2^-1 s3", timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and err == b""
