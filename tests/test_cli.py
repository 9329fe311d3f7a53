import json

import pytest

from liftgap.cli import main
from liftgap.csp import cycle, write_edge_list


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(write_edge_list(cycle(3)))
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(write_edge_list(cycle(5)))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_opt_triangle(capsys, triangle_file):
    code, out, _ = _run(capsys, "opt", triangle_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "2/3"
    assert doc["witness"] == "-++"
    assert doc["manifest"]["command"] == "opt"
    assert doc["manifest"]["version"]


def test_gen_pipe_opt(capsys, monkeypatch, tmp_path):
    code, out, _ = _run(capsys, "gen", "cycle", "--n", "5")
    assert code == 0
    path = tmp_path / "gen.graph"
    path.write_text(out)
    code, out, _ = _run(capsys, "opt", str(path))
    assert json.loads(out)["value"] == "4/5"


def test_opt_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(cycle(3))))
    code, out, _ = _run(capsys, "opt", "-")
    assert code == 0 and json.loads(out)["value"] == "2/3"


def test_determinism_byte_identical(capsys, triangle_file):
    _, first, _ = _run(capsys, "sa", triangle_file, "--rounds", "2")
    _, second, _ = _run(capsys, "sa", triangle_file, "--rounds", "2")
    assert first == second
    doc = json.loads(first)
    assert doc["value"] == "1"
    assert doc["pseudoExpectation"]["moments"]["0"] == "1"


def test_sa_output_parses_back(capsys, triangle_file, tmp_path):
    from liftgap.sa import pe_from_json
    _, out, _ = _run(capsys, "sa", triangle_file, "--rounds", "2")
    pe_doc = json.loads(out)["pseudoExpectation"]
    pe = pe_from_json(json.dumps(pe_doc))
    assert pe.n == 3 and pe.d == 2


def test_sa_edge(capsys, triangle_file):
    code, out, _ = _run(capsys, "sa-edge", triangle_file, "--level", "0")
    assert code == 0
    assert json.loads(out)["value"] == "2/3"


def test_lp_metric(capsys, c5_file):
    code, out, _ = _run(capsys, "lp", c5_file, "--relaxation", "metric")
    assert code == 0 and json.loads(out)["value"] == "4/5"


def test_lp_universal(capsys, triangle_file):
    code, out, _ = _run(capsys, "lp", triangle_file,
                        "--relaxation", "universal:2")
    assert code == 0 and json.loads(out)["value"] == "1"


def test_farkas_triangle(capsys, triangle_file):
    code, out, _ = _run(capsys, "farkas", triangle_file, "--c", "2/3",
                        "--relaxation", "metric")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["verified"] is True

    code, out, _ = _run(capsys, "farkas", triangle_file, "--c", "197/300",
                        "--relaxation", "metric")
    doc = json.loads(out)
    assert doc["feasible"] is False and len(doc["certificate"]) == 8


def test_translate_v2e(capsys, tmp_path, triangle_file):
    from liftgap.sa import pe_to_json, sa_value
    _, pe = sa_value(cycle(3), 6)
    pe_path = tmp_path / "pe.json"
    pe_path.write_text(pe_to_json(pe))
    code, out, _ = _run(capsys, "translate", "--direction", "v2e",
                        "--in", str(pe_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["edgeFunctional"]["r"] == 1


def test_translate_e2v(capsys, tmp_path, triangle_file):
    from liftgap.sa import edge_functional_to_json, edge_sa_solve
    _, ef = edge_sa_solve(cycle(3), 2)
    ef_path = tmp_path / "ef.json"
    ef_path.write_text(edge_functional_to_json(ef))
    code, out, _ = _run(capsys, "translate", "--direction", "e2v",
                        "--in", str(ef_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["pseudoExpectation"]["d"] == 2


def test_slack_csv(capsys, tmp_path):
    out_path = tmp_path / "slack.csv"
    code, out, _ = _run(capsys, "slack", "--relaxation", "metric", "--n", "3",
                        "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("constraint,0,1,")
    assert len(lines) == 11


def test_restrict_command(capsys, tmp_path):
    from liftgap.boolfn import BoolFn, boolfn_to_json
    family = tmp_path / "family.json"
    fn = BoolFn.constant(12, 1)
    family.write_text("[" + boolfn_to_json(fn) + "]")
    code, out, _ = _run(capsys, "restrict", "--family", str(family),
                        "--n", "12", "--m", "3", "--d", "2", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["allPassed"] is True
    assert doc["manifest"]["seed"] == 5


def test_protocol_command(capsys, tmp_path, triangle_file):
    prefix = str(tmp_path / "proto")
    code, out, _ = _run(capsys, "protocol", "--rows", triangle_file,
                        "--c", "7/8", "--s", "3/4", "--T", "2",
                        "--out-prefix", prefix)
    assert code == 0
    doc = json.loads(out)
    assert doc["messages"] == 9
    manifest = json.loads((tmp_path / "proto_manifest.json").read_text())
    assert manifest["T"] == 2
    m_csv = (tmp_path / "proto_M.csv").read_text()
    assert m_csv.splitlines()[0].startswith("instance,0,")
    assert (tmp_path / "proto_U.csv").exists()
    assert (tmp_path / "proto_V.csv").exists()
    assert (tmp_path / "proto_Mprime.csv").exists()


def test_symmetric_check_command(capsys, triangle_file):
    code, out, _ = _run(capsys, "symmetric-check", "--inst0", triangle_file,
                        "--c", "99/100", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["decompositionFeasible"] is False
    assert doc["report"]["consistent"] is True


def test_main_ineq_command(capsys, triangle_file):
    code, out, _ = _run(capsys, "main-ineq", "--relaxation", "universal:2",
                        "--inst0", triangle_file, "--n", "12", "--d", "2",
                        "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["holds"] is True
    assert doc["report"]["lhs"] == "0"


def test_gen_3sat_roundtrip(capsys, tmp_path):
    code, out, _ = _run(capsys, "gen", "3sat", "--n", "4", "--m", "6",
                        "--seed", "3")
    assert code == 0 and out.startswith("p cnf 4 6")
    path = tmp_path / "f.cnf"
    path.write_text(out)
    code, out, _ = _run(capsys, "opt", str(path))
    assert code == 0 and "value" in json.loads(out)


def test_domain_error_exit_code(capsys, triangle_file):
    code, out, err = _run(capsys, "lp", triangle_file, "--relaxation", "bogus")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert "\n" not in err.strip()


def test_usage_error_exit_code(capsys):
    code, _, err = _run(capsys, "sa")
    assert code == 2
    assert json.loads(err.splitlines()[0])["error"] == "usage"


def test_missing_file_is_domain_error(capsys):
    code, _, err = _run(capsys, "opt", "/nonexistent/file.graph")
    assert code == 1
    assert json.loads(err)["error"] == "InputError"


def _assert_input_error(code, out, err):
    assert code == 1 and out == ""
    assert "\n" not in err.strip()
    assert json.loads(err)["error"] == "InputError"


def test_file_relaxation_matches_metric(capsys, tmp_path, triangle_file):
    from liftgap.slack import metric_maxcut
    rel = metric_maxcut(3)
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"embed": "metric", "inequalities": [
        {"coeffs": [str(a) for a in coeffs], "b": str(b)}
        for coeffs, b in rel.inequalities]}))
    code, out, _ = _run(capsys, "lp", triangle_file,
                        "--relaxation", f"file:{path}")
    assert code == 0 and json.loads(out)["value"] == "2/3"


@pytest.mark.parametrize("spec, content", [
    ("universal:abc", None),
    ("file", "not json"),
    ("file", '{"embed": "metric"}'),
    ("file", '{"embed": "file:SELF", "inequalities": []}'),
    ("file", '{"embed": "metric", "inequalities": '
             '[{"coeffs": ["1", "0", "0"], "b": "1", "label": 7}]}'),
], ids=["bad-level", "not-json", "no-inequalities", "file-embed",
        "int-label"])
def test_malformed_relaxation_is_input_error(capsys, tmp_path, triangle_file,
                                             spec, content):
    if content is not None:
        path = tmp_path / "rel.json"
        path.write_text(content.replace("SELF", str(path)))
        spec = f"file:{path}"
    _assert_input_error(*_run(capsys, "lp", triangle_file,
                              "--relaxation", spec))


@pytest.mark.parametrize("direction, doc", [
    ("v2e", {"n": 3, "d": 6, "moments": ["1"]}),
    ("v2e", {"n": 3, "d": 6, "moments": {"0": "1", "x": "0"}}),
    ("e2v", {"n": 3, "r": 2, "moments": ["1"]}),
    ("e2v", {"n": 3, "r": 2, "moments": {"": "1", "a-b": "0"}}),
], ids=["v2e-list", "v2e-key", "e2v-list", "e2v-key"])
def test_malformed_functional_is_input_error(capsys, tmp_path, direction, doc):
    path = tmp_path / "functional.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(*_run(capsys, "translate", "--direction", direction,
                              "--in", str(path)))


def test_malformed_family_is_input_error(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text("[{")
    _assert_input_error(*_run(capsys, "restrict", "--family", str(path),
                              "--n", "12", "--m", "3", "--d", "2",
                              "--seed", "1"))
