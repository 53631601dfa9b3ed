"""Determinism of the command line across processes: each case runs
`python -m rewirelab.cli` (or a demo) in fresh subprocesses and compares stdout and
exit code byte for byte across PYTHONHASHSEED 1 and 2, and for `decide gros`,
`rewire greedy`, `rewire sdrf` and `analyze` on the Lanczos path also across one
OpenBLAS thread and the default count (the machine's cores)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

from rewirelab import GrocInstance, GrosInstance, decide_groc, decide_gros, parse_graph, sturm
from rewirelab.cli import EXIT_NO, EXIT_YES, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(args: list[str], hash_seed: int, blas_threads: int | None = None) -> tuple[bytes, int]:
    """stdout and exit code of one process; blas_threads None keeps the default count."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    return done.stdout, done.returncode


def _cli(*args) -> list[str]:
    return ["-m", "rewirelab.cli", *map(str, args)]


def _gen(path: Path, *args) -> Path:
    assert main(["gen", *map(str, args), "--output", str(path)]) == EXIT_YES
    return path


def _graph(path: Path):
    return parse_graph(path.read_text())


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_identical_across_hash_seeds(demo):
    out1, code1 = _run([str(demo)], 1)
    out2, code2 = _run([str(demo)], 2)
    assert code1 == code2 == 0
    assert out1 == out2


def _grid(x: float) -> Fraction:
    """x rounded down to the 1e-7 grid."""
    return Fraction(floor(x * 10**7), 10**7)


@pytest.fixture(scope="module")
def gros_cases(tmp_path_factory):
    """(graph, budget, tau, mode, exit code) at thresholds on the 1e-7 grid next to the
    least float mu2: n = 32 at K = 0 and n = 8 at K = 2 just below it ("no") and just
    above it ("yes"), and n = 8 at K = 1 just above it."""
    tmp = tmp_path_factory.mktemp("gros")
    g32 = _gen(tmp / "gros-32.txt", "random_regular", 32, 3, "--seed", 7)
    g8 = _gen(tmp / "gros-8.txt", "gnp", 8, 0.5, "--seed", 7)
    # a witness at row 22 of its block, past row 16: the last row of the first hint chunk
    # (1024 float64 entries of 8 x 8 matrices) when hints were solved in doubling chunks
    late = _gen(tmp / "gros-8-late.txt", "gnp", 8, 0.5, "--seed", 4)
    mu32 = decide_gros(GrosInstance(_graph(g32), 0, 1)).value_achieved
    mu8 = decide_gros(GrosInstance(_graph(g8), 1, 1)).value_achieved
    mu8_k2 = decide_gros(GrosInstance(_graph(g8), 2, 1)).value_achieved
    mu_late = decide_gros(GrosInstance(_graph(late), 1, 1)).value_achieved
    # K3,3 in absolute mode at tau = 1/3: mu2 = 1/4 but mu_min = -1/2, so no proof applies
    # and exact_mu2_leq decides at tau ("no")
    k33 = tmp / "gros-k33.txt"
    k33.write_text("6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n")
    return {
        "n32-below": (g32, 0, _grid(mu32 - 1e-6), "signed", EXIT_NO),
        "n32-above": (g32, 0, _grid(mu32 + 2e-6), "signed", EXIT_YES),
        "n8-k1-above": (g8, 1, _grid(mu8 + 2e-6), "signed", EXIT_YES),
        "n8-k2-below": (g8, 2, _grid(mu8_k2 - 1e-6), "signed", EXIT_NO),
        "n8-k2-above": (g8, 2, _grid(mu8_k2 + 2e-6), "signed", EXIT_YES),
        "n8-k1-late-witness": (late, 1, _grid(mu_late + 2e-6), "signed", EXIT_YES),
        "k33-absolute": (k33, 0, Fraction(1, 3), "absolute", EXIT_NO),
    }


def test_late_witness_lies_past_the_first_hint_chunk(gros_cases):
    graph, budget, tau, mode, _ = gros_cases["n8-k1-late-witness"]
    g = _graph(graph)
    witness = decide_gros(GrosInstance(g, budget, tau, mode)).witness
    (pair,) = witness.additions | witness.removals
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    assert 1 + pairs.index(pair) == 22  # row 0 is the empty set


def test_kernel_proves_every_row_of_the_k2_no_case(gros_cases, monkeypatch):
    # the "no" case just below the least float mu2 rests on the block kernel alone
    graph, budget, tau, mode, _ = gros_cases["n8-k2-below"]
    calls = []
    monkeypatch.setattr(sturm, "exact_mu2_leq", lambda *args: calls.append(args))
    assert decide_gros(GrosInstance(_graph(graph), budget, tau, mode)).answer == "no"
    assert calls == []


@pytest.mark.parametrize(
    "case", ["n32-below", "n32-above", "n8-k1-above", "n8-k1-late-witness", "n8-k2-below", "n8-k2-above", "k33-absolute"]
)
def test_decide_gros_identical_across_blas_threads_and_hash_seeds(gros_cases, case):
    graph, budget, tau, mode, code = gros_cases[case]
    args = _cli("decide", "gros", graph, budget, tau, "--mode", mode)
    one = _run(args, 1, blas_threads=1)
    default = _run(args, 2)
    assert one == default
    assert one[1] == code


@pytest.fixture(scope="module")
def groc_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("groc")
    return _gen(tmp / "groc-9.txt", "gnp", 9, 0.5, "--seed", 7), _gen(tmp / "groc-14.txt", "gnp", 14, 0.3, "--seed", 7)


def test_bounded_groc_identical_across_hash_seeds(groc_files):
    groc9, groc14 = groc_files
    # K = 2 at n = 9 takes the candidate bound: phi0 at the optimum, 1/1000 below and above it
    best = Fraction(decide_groc(GrocInstance(_graph(groc9), 2, 1)).value_achieved).limit_denominator(10**6)
    for phi0, code in ((best, EXIT_YES), (best - Fraction(1, 1000), EXIT_YES), (min(best + Fraction(1, 1000), 1), EXIT_NO)):
        args = _cli("decide", "groc", groc9, 2, phi0)
        out = _run(args, 1)
        assert out == _run(args, 2)
        assert out[1] == code, phi0
    args = _cli("rewire", "greedy", groc14, 1, "--objective", "conductance")
    out = _run(args, 1)
    assert out == _run(args, 2)
    assert out[1] == EXIT_YES


@pytest.fixture(scope="module")
def tie_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ties")
    k20 = _gen(tmp / "ties-k20.txt", "complete", 20)
    # two disjoint K8: phi = 0, and every bisection that splits no clique ties
    edges = [(b + u, b + v) for b in (0, 8) for u in range(8) for v in range(u + 1, 8)]
    two_k8 = tmp / "ties-2k8.txt"
    two_k8.write_text(f"16 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return {"k20": k20, "2k8": two_k8}


@pytest.mark.parametrize("name", ["k20", "2k8"])
def test_tie_heavy_cuts_identical_across_hash_seeds(tie_files, name):
    graph = tie_files[name]
    analyze = _run(_cli("analyze", graph, "--format", "json"), 1)
    assert analyze == _run(_cli("analyze", graph, "--format", "json"), 2)
    assert analyze[1] == EXIT_YES
    phi = Fraction(json.loads(analyze[0])["phi_exact"])
    # budget 0 at phi is "yes" (exit 0) and 1/1000 above it "no" (exit 1)
    for phi0, code in ((phi, EXIT_YES), (phi + Fraction(1, 1000), EXIT_NO)):
        args = _cli("decide", "groc", graph, 0, phi0)
        out = _run(args, 1)
        assert out == _run(args, 2)
        assert out[1] == code, phi0


@pytest.fixture(scope="module")
def rewire_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rewire")
    return _gen(tmp / "gnp-40.txt", "gnp", 40, 0.2, "--seed", 7), _gen(tmp / "gnp-120.txt", "gnp", 120, 0.05, "--seed", 7)


@pytest.mark.parametrize("heuristic", ["greedy", "sdrf"])
def test_rewire_identical_across_blas_threads_and_hash_seeds(rewire_files, heuristic):
    # greedy scores its toggles with stacked dense eigh calls, sdrf with resistances from pinv
    gnp40, gnp120 = rewire_files
    args = _cli("rewire", "greedy", gnp40, 2) if heuristic == "greedy" else \
        _cli("rewire", "sdrf", gnp120, 8, "--removal-fraction", 0.25)
    one = _run(args, 1, blas_threads=1)
    assert one == _run(args, 2, blas_threads=1) == _run(args, 2)
    assert one[1] == EXIT_YES
    report = json.loads(one[0])
    assert report["edits"]["add"] and (heuristic == "greedy" or report["edits"]["remove"])


def test_rewire_ppr_identical_across_hash_seeds(rewire_files):
    # across BLAS thread counts the trace scores, from one dense PPR solve at n = 120,
    # differ in their last bits
    args = _cli("rewire", "ppr", rewire_files[1], 10)
    out = _run(args, 1)
    assert out == _run(args, 2)
    assert out[1] == EXIT_YES and json.loads(out[0])["edits"]["add"]


def test_lanczos_analyze_identical_across_blas_threads_and_hash_seeds(tmp_path):
    # 3-regular n = 1500: the Lanczos path, with mu2 started from lambda2's eigenvector
    graph = _gen(tmp_path / "reg-1500.txt", "random_regular", 1500, 3, "--seed", 4)
    args = _cli("analyze", graph, "--format", "json")
    one = _run(args, 1, blas_threads=1)
    assert one == _run(args, 2, blas_threads=1) == _run(args, 2)
    assert one[1] == EXIT_YES
    report = json.loads(one[0])
    assert report["connected"] is True and 0 < report["lambda2"] < 1
