import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewirelab import GrocInstance, GrosInstance, build_graph, decide_groc, decide_gros, parse_graph, serialize_graph
from rewirelab.cli import main
from rewirelab.errors import RewireLabError


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


@pytest.mark.parametrize(
    ("argv", "named"),
    [(("gnp", "5"), "'gnp' takes 2 parameter(s), n p; got 1"), (("cycle", "4", "5"), "'cycle' takes 1 parameter(s), n; got 2")],
)
def test_gen_wrong_parameter_count_exit_4(capsys, argv, named):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (4, "")
    assert named in err and "unpack" not in err


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


def test_analyze_text_is_the_default_format(capsys, c4_file):
    code, out, _ = run(capsys, "analyze", c4_file)
    assert code == 0
    assert out == (
        "n = 4, m = 4, connected = True\n"
        "lambda2 = 1.000000, mu2 = 0.333333, mu_min = -0.333333\n"
        "cheeger interval = [0.500000, 1.414214]\n"
        "phi = 1/2 = 0.500000, witness = [0, 1]\n"
        "cheeger verdict: pass\n"
    )
    assert run(capsys, "--format", "text", "analyze", c4_file)[1] == out


def test_analyze_csv(capsys, c4_file):
    code, out, _ = run(capsys, "--format", "csv", "analyze", c4_file)
    assert code == 0
    header, row, tail = out.split("\n")
    assert (header, tail) == ("n,m,connected,lambda2,mu2,mu_min,phi,cheeger_verdict", "")
    fields = row.split(",")
    assert fields[:3] + fields[6:] == ["4", "4", "True", "0.5", "pass"]
    floats = [float(x) for x in fields[3:6]]
    assert [repr(x) for x in floats] == fields[3:6]  # floats print by repr, so they round-trip
    assert floats == pytest.approx([1.0, 1 / 3, -1 / 3], abs=1e-12)


def test_analyze_isolated_vertex_text_and_csv(tmp_path, capsys):
    path = write_graph(tmp_path, "iso.txt", "3 1\n0 1\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert out == (
        "n = 3, m = 1, connected = False\n"
        "spectral summary unavailable: vertex 2 has degree 0; spectral summary undefined\n"
        "phi = 0/1 = 0.000000, witness = [0, 1]\n"
    )
    code, out, _ = run(capsys, "--format", "csv", "analyze", path)
    assert code == 0
    assert out == "n,m,connected,lambda2,mu2,mu_min,phi,cheeger_verdict\n3,1,False,,,,0.0,\n"


def _analyze_json_walking_the_graph(g):
    """analyze's JSON for a graph above the exact limits, built as before `connected`
    came from the spectral summary: a graph walk, then the summary."""
    from rewirelab.cuts import cheeger_interval
    from rewirelab.spectral import spectral_summary

    out = {"n": g.n, "m": g.m, "connected": g.is_connected()}
    try:
        s = spectral_summary(g)
        out.update(lambda2=s.lambda2, mu2=s.mu2, mu_min=s.mu_min, cheeger_interval=list(cheeger_interval(s)))
    except RewireLabError as exc:
        out["spectral_error"] = str(exc)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(("name", "walks"), [("regular600", 0), ("two-cycles300", 0), ("cycle599-isolated", 1)])
def test_analyze_reads_connected_from_the_summary(tmp_path, capsys, monkeypatch, name, walks):
    from rewirelab import Graph, random_regular_graph

    def cycle(base, k):
        return [(base + i, base + (i + 1) % k) for i in range(k)]

    g = {
        "regular600": lambda: random_regular_graph(600, 3, seed=1),
        "two-cycles300": lambda: build_graph(600, cycle(0, 300) + cycle(300, 300)),
        "cycle599-isolated": lambda: build_graph(600, cycle(0, 599)),  # vertex 599 has degree 0
    }[name]()
    path = write_graph(tmp_path, "g.txt", serialize_graph(g))
    expected = _analyze_json_walking_the_graph(build_graph(g.n, g.edges))
    seen = []
    components = Graph.connected_components
    monkeypatch.setattr(Graph, "connected_components", lambda self: seen.append(self.n) or components(self))
    code, out, _ = run(capsys, "--format", "json", "analyze", path)
    assert code == 0
    assert out == expected
    assert len(seen) == walks  # above 512 vertices the summary reads connectivity without a walk

def test_analyze_malformed_exit_2(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", "2 1\n0 2\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{bad}"),
        ("decide", "gros", "{bad}", "0", "1/2"),
        ("decide", "groc", "{bad}", "0", "1/2"),
        ("rewire", "sdrf", "{bad}", "1"),
        ("reduce", "groc", "{bad}", "2"),
        ("verify", "{bad}"),
    ],
)
def test_file_that_is_not_utf8_exit_2(tmp_path, capsys, argv):
    # UnicodeDecodeError is a ValueError: it read as a parameter error (exit 4)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    argv = [a.format(bad=bad) for a in argv] + ["--out-prefix", str(tmp_path / "x")] * (argv[0] == "reduce")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "utf-8" in err and err.count("\n") == 1


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


def test_decide_negative_fraction_threshold(capsys, c4_file):
    # '-1/2' is a number, not a flag: same exit and output as after '--'
    plain = run(capsys, "decide", "gros", c4_file, "1", "-1/2")
    separated = run(capsys, "decide", "gros", c4_file, "1", "--", "-1/2")
    assert plain[0] in (0, 1)
    assert plain == separated
    flag_after = run(capsys, "decide", "gros", c4_file, "1", "-1/2", "--mode", "absolute")
    assert flag_after[0] in (0, 1)
    assert json.loads(flag_after[1])["objective"] == "mu2"


def test_decide_search_space_exit_3(capsys, c4_file):
    code, _, err = run(capsys, "--exact-limit-k", "3", "decide", "groc", c4_file, "2", "1/2")
    assert code == 3
    assert "candidate" in err


@pytest.mark.parametrize("limit", ["0", "3"])
def test_explicit_exact_limit_n_is_honoured(tmp_path, capsys, limit):
    c6 = write_graph(tmp_path, "c6.txt", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    for problem in ("groc", "gros"):
        code, _, err = run(capsys, "--exact-limit-n", limit, "decide", problem, c6, "1", "1/2")
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


@pytest.mark.parametrize("heuristic", ["greedy", "sdrf", "ppr"])
def test_rewire_negative_budget_exit_4(capsys, c4_file, heuristic):
    # ppr kept every addition on a negative budget
    code, out, err = run(capsys, "rewire", heuristic, c4_file, "-1")
    assert (code, out, err) == (4, "", "error: budget must be >= 0, got -1\n")


def test_rewire_ppr_nan_epsilon_exit_4(capsys, c4_file):
    # nan passed the epsilon < 0 check, and every score was dropped with exit 0
    code, out, err = run(capsys, "rewire", "ppr", c4_file, "1", "--epsilon", "nan")
    assert (code, out) == (4, "") and "sparsification threshold must be >= 0, got nan" in err


def test_rewire_greedy_isolated_vertex_exit_4(tmp_path, capsys):
    iso = write_graph(tmp_path, "iso.txt", "4 2\n0 1\n1 2\n")
    code, out, err = run(capsys, "rewire", "greedy", iso, "1")
    assert code == 4 and out == ""
    assert "vertex 3 has degree 0" in err
    code, out, _ = run(capsys, "rewire", "greedy", write_graph(tmp_path, "k1.txt", "1 0\n"), "1")
    assert code == 0 and json.loads(out)["trace"] == [0.0]


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


def test_verify_boolean_seed_exit_5(tmp_path, capsys, c4_file):
    # JSON true is not the integer 1, although Python compares True == 1
    prefix = str(tmp_path / "red")
    code, _, _ = run(capsys, "reduce", "groc", c4_file, "2", "--seed", "1", "--out-prefix", prefix)
    assert code == 0
    cert_path = tmp_path / "red.cert.json"
    cert = json.loads(cert_path.read_text())
    assert cert["seed"] == 1
    cert["seed"] = True
    cert_path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 5
    assert [d for d in json.loads(out)["diffs"] if d.startswith("seed:")]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda cert: {k: v for k, v in cert.items() if k != "constants"},
        lambda cert: 5,
        lambda cert: {**cert, "instance": {**cert["instance"], "budget": None}},
        lambda cert: {**cert, "kind": "foo"},
        lambda cert: {**cert, "constants": {**cert["constants"], "c1": "1/0"}},
        lambda cert: {**cert, "constants": {**cert["constants"], "c1": "abc"}},
        lambda cert: {**cert, "pad_expander_floor": "abc"},
        lambda cert: {**cert, "pad_expander_floor": "nan"},
        lambda cert: {**cert, "pad_expander_floor": "inf"},
    ],
    ids=[
        "no-constants",
        "not-an-object",
        "null-budget",
        "unknown-kind",
        "zero-denominator-c1",
        "unparsable-c1",
        "unparsable-floor",
        "nan-floor",
        "infinite-floor",
    ],
)
def test_verify_malformed_certificate_exit_2(tmp_path, capsys, c4_file, tamper):
    prefix = str(tmp_path / "red")
    code, _, _ = run(capsys, "reduce", "groc", c4_file, "2", "--out-prefix", prefix)
    assert code == 0
    cert_path = tmp_path / "red.cert.json"
    cert_path.write_text(json.dumps(tamper(json.loads(cert_path.read_text()))))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error: not a reduction certificate") and err.count("\n") == 1


@pytest.mark.parametrize("problem", ["groc", "gros"])
@pytest.mark.parametrize("floor", ["nan", "inf", "-inf", "1e400"])
def test_reduce_non_finite_pad_floor_exit_4(tmp_path, capsys, c4_file, problem, floor):
    # nan passed every lambda2 < floor test, and inf failed only after every pad completion
    prefix = str(tmp_path / "red")
    code, out, err = run(capsys, "reduce", problem, c4_file, "2", f"--pad-floor={floor}", "--out-prefix", prefix)
    assert code == 4 and out == ""
    assert "pad expander floor must be finite" in err
    assert not (tmp_path / "red.cert.json").exists()


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


def test_deterministic_output_across_runs(capsys, c4_file, tmp_path):
    prefix1 = str(tmp_path / "a")
    prefix2 = str(tmp_path / "b")
    code, out1, _ = run(capsys, "reduce", "groc", c4_file, "2", "--out-prefix", prefix1)
    assert code == 0
    code, out2, _ = run(capsys, "reduce", "groc", c4_file, "2", "--out-prefix", prefix2)
    assert code == 0
    assert out1 == out2
    assert (tmp_path / "a.cert.json").read_bytes() == (tmp_path / "b.cert.json").read_bytes()


def test_gen_deterministic_under_seed(capsys):
    _, out1, _ = run(capsys, "--seed", "5", "gen", "gnp", "10", "0.4")
    _, out2, _ = run(capsys, "--seed", "5", "gen", "gnp", "10", "0.4")
    _, out3, _ = run(capsys, "--seed", "6", "gen", "gnp", "10", "0.4")
    assert out1 == out2
    assert out1 != out3


_PROBE = """
import json, runpy, sys
sys.argv = ["rewirelab"] + sys.argv[1:]
code = None
try:
    runpy.run_module("rewirelab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "rewirelab": sorted(m.split(".")[1] for m in sys.modules if m.startswith("rewirelab.")),
    "numpy": "numpy" in sys.modules,
}))
"""


def _cli_child(cwd, *argv):
    """Run the CLI in a fresh interpreter; returns its exit code, the scipy
    modules and the rewirelab submodules it loaded, and whether it loaded numpy."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_small_graph_commands_never_import_scipy(tmp_path, c4_file):
    for argv in (
        ("decide", "groc", c4_file, "1", "1/3"),
        ("decide", "gros", c4_file, "1", "1/2"),
        ("analyze", c4_file, "--format", "json"),
    ):
        child = _cli_child(tmp_path, *argv)
        assert child["code"] in (0, 1)
        assert child["scipy"] == [], argv


def test_lanczos_analyze_imports_what_it_needs(tmp_path):
    # n = 520 is above DENSE_LIMIT: the sparse matrices and eigsh load lazily
    n = 520
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    path = write_graph(tmp_path, "g520.txt", serialize_graph(build_graph(n, edges)))
    child = _cli_child(tmp_path, "analyze", path, "--format", "json")
    assert child["code"] == 0
    assert "scipy.sparse.linalg" in child["scipy"]


@pytest.mark.parametrize("problem", ["groc", "gros"])
def test_decide_loads_neither_reductions_nor_spectral(tmp_path, c4_file, problem):
    child = _cli_child(tmp_path, "decide", problem, c4_file, "1", "1/2")
    assert child["code"] in (0, 1)
    assert child["rewirelab"] == ["cuts", "errors", "graph", "rewiring", "sturm"]


def test_small_analyze_loads_no_reductions_rewiring_or_scipy(tmp_path):
    # n = 512 is DENSE_LIMIT, the largest graph on the dense path
    n = 512
    path = write_graph(tmp_path, "c512.txt", serialize_graph(build_graph(n, [(i, (i + 1) % n) for i in range(n)])))
    child = _cli_child(tmp_path, "analyze", path, "--format", "json")
    assert child["code"] == 0
    assert child["rewirelab"] == ["cuts", "errors", "graph", "spectral"]
    assert child["scipy"] == []


def test_gen_and_version_load_only_what_they_run(tmp_path):
    child = _cli_child(tmp_path, "gen", "cycle", "4")
    assert child["code"] == 0
    assert child["rewirelab"] == ["errors", "graph"]
    child = _cli_child(tmp_path, "--version")
    assert child["code"] == 0
    assert child["rewirelab"] == ["errors"] and child["numpy"] is False


@pytest.mark.parametrize("problem", ["groc", "gros"])
def test_reduce_and_verify_load_reductions_in_a_fresh_process(tmp_path, c4_file, problem):
    prefix = str(tmp_path / "red")
    child = _cli_child(tmp_path, "reduce", problem, c4_file, "2", "--allow-unscaled", "--out-prefix", prefix)
    assert child["code"] == 0 and "reductions" in child["rewirelab"]
    child = _cli_child(tmp_path, "verify", prefix + ".cert.json")
    assert child["code"] == 0 and "reductions" in child["rewirelab"]


@st.composite
def _decide_argv(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    problem = draw(st.sampled_from(["groc", "gros"]))
    q = draw(st.integers(1, 9))
    p = draw(st.integers(-q - 1 if problem == "gros" else -1, q + 1))  # one step past each end of the range
    return g, problem, draw(st.integers(0, 2)), Fraction(p, q), f"{p}/{q}"


@settings(max_examples=60, deadline=None)
@given(case=_decide_argv())
def test_decide_exit_code_matches_in_process_decision(case):
    g, problem, budget, threshold, text = case
    try:
        if problem == "groc":
            decision = decide_groc(GrocInstance(g, budget, threshold))
        else:
            decision = decide_gros(GrosInstance(g, budget, threshold))
        want = 0 if decision.answer == "yes" else 1
    except (RewireLabError, ValueError):
        want = 4
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(serialize_graph(g))
        assert parse_graph(serialize_graph(g)) == g
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["decide", problem, path, str(budget), text])
            runs.append((code, out.getvalue()))
    assert runs[0][0] == want, (case, runs[0], err.getvalue())
    assert runs[0] == runs[1]
    if want in (0, 1):
        assert json.loads(runs[0][1])["answer"] == decision.answer


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "gros", "{c4}", "0", "1/0"),
        ("decide", "groc", "{c4}", "0", "-1/0"),
        ("reduce", "groc", "{c4}", "2", "--c1", "1/0"),
        ("reduce", "groc", "{c4}", "2", "--c2", "1/0"),
        ("reduce", "gros", "{c4}", "2", "--c3", "0/0"),
        ("decide", "gros", "{c4}", "0", "nan"),
    ],
)
def test_zero_denominator_exit_4(capsys, c4_file, tmp_path, argv):
    # exit 1 would read as "no"; a zero denominator is a parameter error, as 'nan' is
    argv = [a.format(c4=c4_file) for a in argv] + ["--out-prefix", str(tmp_path / "x")] * (argv[0] == "reduce")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1
