import json

import pytest

from rewirelab import parse_graph, serialize_graph
from rewirelab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    return write_graph(tmp_path, "c4.txt", "4 4\n0 1\n0 3\n1 2\n2 3\n")


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "4")
    assert code == 0
    assert parse_graph(out).m == 4


def test_gen_barbell_and_output_file(tmp_path, capsys):
    target = tmp_path / "b5.txt"
    code, _, _ = run(capsys, "gen", "barbell", "5", "--output", str(target))
    assert code == 0
    g = parse_graph(target.read_text())
    assert g.n == 10 and g.m == 21


def test_gen_parity_error_exit_4(capsys):
    code, _, err = run(capsys, "gen", "random_regular", "5", "3")
    assert code == 4
    assert "odd" in err


def test_analyze_c4(capsys, c4_file):
    code, out, _ = run(capsys, "--format", "json", "analyze", c4_file)
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == 0.5
    assert abs(report["lambda2"] - 1.0) < 1e-9
    assert report["cheeger_verdict"] == "pass"
    assert abs(report["cheeger_interval"][1] - 1.4142135623730951) < 1e-12


def test_analyze_disconnected(tmp_path, capsys):
    path = write_graph(tmp_path, "disc.txt", "4 2\n0 1\n2 3\n")
    code, out, _ = run(capsys, "--format", "json", "analyze", path)
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == 0.0 and report["phi_witness"] == [0, 1]
    assert report["connected"] is False


def test_analyze_malformed_exit_2(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", "2 1\n0 2\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "line 2" in err


def test_decide_groc_exit_codes(capsys, c4_file):
    code, out, _ = run(capsys, "decide", "groc", c4_file, "0", "1/2")
    assert code == 0
    assert json.loads(out)["answer"] == "yes"
    code, out, _ = run(capsys, "decide", "groc", c4_file, "0", "0.7")
    assert code == 1
    assert json.loads(out)["answer"] == "no"


def test_decide_gros_rational_threshold(capsys, c4_file):
    code, out, _ = run(capsys, "decide", "gros", c4_file, "0", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == "mu2"
    # strictly below the exact eigenvalue 1/3 flips the answer
    code, _, _ = run(capsys, "decide", "gros", c4_file, "0", "33332/100000")
    assert code == 1


def test_decide_search_space_exit_3(capsys, c4_file):
    code, _, err = run(capsys, "--exact-limit-k", "3", "decide", "groc", c4_file, "2", "1/2")
    assert code == 3
    assert "candidate" in err


@pytest.mark.parametrize("limit", ["0", "3"])
def test_explicit_exact_limit_n_is_honoured(tmp_path, capsys, limit):
    c6 = write_graph(tmp_path, "c6.txt", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, _, err = run(capsys, "--exact-limit-n", limit, "decide", "groc", c6, "1", "1/2")
    assert code == 3
    assert f"n <= {limit}," in err


def test_rewire_greedy_reports_metrics(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "barbell", "5", "--output", str(tmp_path / "b5.txt"))
    assert code == 0
    code, out, _ = run(
        capsys, "rewire", "greedy", str(tmp_path / "b5.txt"), "1", "--objective", "conductance"
    )
    assert code == 0
    report = json.loads(out)
    assert report["after"]["phi"] > report["before"]["phi"]
    assert len(report["edits"]["add"]) + len(report["edits"]["remove"]) == 1


def test_rewire_budget_zero_identical_metrics(capsys, c4_file):
    code, out, _ = run(capsys, "rewire", "greedy", c4_file, "0")
    assert code == 0
    report = json.loads(out)
    assert report["edits"] == {"add": [], "remove": []}
    assert report["before"] == report["after"]


def test_rewire_ppr_complete_graph_empty(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.txt", serialize_graph(parse_graph("4 4\n0 1\n0 3\n1 2\n2 3\n")))
    # complete graph: use gen
    code, _, _ = run(capsys, "gen", "complete", "4", "--output", path)
    assert code == 0
    code, out, _ = run(capsys, "rewire", "ppr", path, "5")
    assert code == 0
    assert json.loads(out)["edits"] == {"add": [], "remove": []}


def test_reduce_and_verify_round_trip(tmp_path, capsys, c4_file):
    prefix = str(tmp_path / "red")
    code, out, _ = run(capsys, "reduce", "groc", c4_file, "2", "--c1", "1/10", "--out-prefix", prefix)
    assert code == 0
    cert = json.loads(out)
    assert cert["threshold"] == "17/20"
    assert (tmp_path / "red.graph.txt").exists()
    code, out, _ = run(capsys, "verify", f"{prefix}.cert.json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_tampered_certificate_exit_5(tmp_path, capsys, c4_file):
    prefix = str(tmp_path / "red")
    code, _, _ = run(capsys, "reduce", "groc", c4_file, "2", "--out-prefix", prefix)
    assert code == 0
    cert_path = tmp_path / "red.cert.json"
    cert = json.loads(cert_path.read_text())
    cert["threshold"] = "9/10"
    cert_path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 5
    assert any("threshold" in d for d in json.loads(out)["diffs"])


def test_verify_honours_exact_limit_n(tmp_path, capsys):
    # h.n = 10 is above the default verification limit of 8
    c10 = write_graph(tmp_path, "c10.txt", "10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    prefix = str(tmp_path / "red")
    code, out, _ = run(
        capsys, "reduce", "gros", c10, "2", "--allow-unscaled", "--exact-limit-n", "10", "--out-prefix", prefix
    )
    assert code == 0
    assert json.loads(out)["bisection"]["width"] == 2
    code, out, _ = run(capsys, "verify", f"{prefix}.cert.json", "--exact-limit-n", "10")
    assert code == 0
    assert json.loads(out)["match"] is True
    code, _, _ = run(capsys, "verify", f"{prefix}.cert.json")
    assert code == 3


def test_reduce_degree_too_high_exit_4(tmp_path, capsys):
    path = write_graph(tmp_path, "star.txt", "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    code, _, err = run(capsys, "reduce", "groc", path, "2")
    assert code == 4
    assert "degree" in err.lower()


def test_reduce_invalid_constants_exit_4(capsys, c4_file):
    code, _, _ = run(capsys, "reduce", "groc", c4_file, "2", "--c1", "1/5")
    assert code == 4


def test_deterministic_output_across_runs_and_workers(capsys, c4_file, tmp_path):
    prefix1 = str(tmp_path / "a")
    prefix2 = str(tmp_path / "b")
    code, out1, _ = run(capsys, "--workers", "1", "reduce", "groc", c4_file, "2", "--out-prefix", prefix1)
    assert code == 0
    code, out2, _ = run(capsys, "--workers", "4", "reduce", "groc", c4_file, "2", "--out-prefix", prefix2)
    assert code == 0
    assert out1 == out2
    assert (tmp_path / "a.cert.json").read_bytes() == (tmp_path / "b.cert.json").read_bytes()


def test_gen_deterministic_under_seed(capsys):
    _, out1, _ = run(capsys, "--seed", "5", "gen", "gnp", "10", "0.4")
    _, out2, _ = run(capsys, "--seed", "5", "gen", "gnp", "10", "0.4")
    _, out3, _ = run(capsys, "--seed", "6", "gen", "gnp", "10", "0.4")
    assert out1 == out2
    assert out1 != out3
