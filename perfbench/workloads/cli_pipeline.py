"""cli-pipeline: each operation is a fresh `python -m rewirelab.cli` process.

This is how the README tells users to run the tool, so import cost counts:
users pay it on every call.  It is the only workload that reaches
`reductions` and `min_bisection_exact`, and it uses `cuts` differently from
the decisions: a `measure_constants` Gray scan plus `conductance_of` and
`balance_cut` per cut.  Every command is in one of the two latency groups, as
on spectral-heuristics: "groc" holds the conductance side (decide groc, the
three rewire heuristics, reduce groc and its verify), "gros" the spectral side
(decide gros, analyze, reduce gros and its verify).

Each command runs in worker.py's small process, so the peak memory reported is
the largest command's own.  Two known contract defects are run as untimed
probes in the trace run only,
so a fix that makes `verify` do real work does not read as a regression:
`verify --exact-limit-n 10` on a certificate written with that limit, and a
negative threshold (`-1/2`) passed without `--`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import combinations

import numpy as np

from common import (
    OUT,
    Op,
    bisection_width_oracle,
    connected_gnp_edges,
    edit_json,
    normalized_laplacian_dense,
    phi_of_toggles,
    phi_oracle,
    propagation_dense,
    regular_edges,
    rng_for,
    serialize,
    sparse_connected_edges,
    spread_in_time,
    toggle_sets,
)
from workloads.exact_decide import _design_groc, _design_gros, witness_index

NAME = "cli-pipeline"
AGREE = 1e-8


def _max_degree_3(rng, n):
    """A bisection instance H: even n, maximum degree 3, about 1.2 n edges."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    deg, edges = [0] * n, []
    for u, v in pairs:
        if len(edges) >= (6 * n) // 5:
            break
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return frozenset(edges)


def _parse_text(text):
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.startswith("#")]
    n, _ = map(int, lines[0].split())
    return n, frozenset(tuple(sorted(map(int, ln.split()))) for ln in lines[1:])


# (problem, budget, design) of the `decide` commands in a round.  With them
# each latency group holds at least 40 commands, so its tail (the 11th-largest
# latency) is at or above p75.  A command costs at least the 0.45-0.5 s of
# starting Python and importing rewirelab.cli, so the single round that holds
# them takes about a minute on the reference machine, whatever --seconds says.
DECIDES = ([("groc", 1, "alt")] * 24 + [("groc", 2, "alt")] * 8
           + [("gros", 1, "no")] * 15 + [("gros", 1, 0.5)] * 18)


class Workload:
    NAME = NAME
    MODULE = None  # worker.py runs each call as a `python -m rewirelab.cli` child
    NOMINAL_ROUND_S = 60.0

    def __init__(self):
        self.dir = os.path.join(OUT, f"cli-{os.getpid()}")
        self.trace_dir = os.path.join(self.dir, "spans")
        os.makedirs(self.trace_dir, exist_ok=True)
        self.h10_cert = None
        self.imports_ms: list = []

    def job_header(self):
        return {"cwd": self.dir, "trace_dir": self.trace_dir}

    def _call(self, args):
        """An untimed command, for the set-up check and the contract probes."""
        return subprocess.run([sys.executable, "-m", "rewirelab.cli", *args], cwd=self.dir,
                              capture_output=True, text=True, timeout=170)

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return name

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- operations ---------------------------------------------------------------------

    def _op(self, op_id, kind, group, args, check, exact=None, info=None, repeat=False, follows=False):
        info = dict(info or {})
        info["args"] = args
        return Op(op_id, kind, group, ("cli", args), check, exact, info, repeat, follows)

    def round_ops(self, seed, r):
        ops = []

        def rng(name):
            return rng_for(seed, f"r{r}.{name}")

        # analyze: exact phi plus dense spectra at n = 20, Lanczos at 1500 and 5000
        e20 = connected_gnp_edges(rng("analyze20"), 20, 0.3, 1)
        f = self._write(f"r{r}-g20.txt", serialize(20, e20))
        ops.append(self._op(f"r{r}.analyze.gnp20", "analyze", "gros", ["analyze", f, "--format", "json"],
                            self._check_analyze(20, e20, exact_phi=True), exact=_analyze_exact, repeat=True))
        for n in (1500, 5000):
            e = regular_edges(rng(f"analyze{n}"), n, 3)
            f = self._write(f"r{r}-reg{n}.txt", serialize(n, e))
            ops.append(self._op(f"r{r}.analyze.reg{n}", "analyze", "gros", ["analyze", f, "--format", "json"],
                                self._check_analyze(n, e, exact_phi=False), repeat=True))

        # decide groc|gros at n = 9, thresholds designed by the oracles
        for j, (problem, k, design) in enumerate(DECIDES):
            op_rng = rng(f"decide{j}")
            e = connected_gnp_edges(op_rng, 9, 0.5, 2)
            f = self._write(f"r{r}-decide{j}.txt", serialize(9, e))
            if problem == "groc":
                thr, witness, best, _ = _design_groc(op_rng, 9, k, e, op_rng.random() < 0.5)
            else:
                thr, witness, best, _ = _design_gros(op_rng, 9, k, e, design)
            ops.append(self._op(f"r{r}.decide.{problem}{j}", f"decide.{problem}", problem,
                                ["decide", problem, f, str(k), f"{thr.numerator}/{thr.denominator}"],
                                _check_decide(problem, e, witness, best), exact=_stdout, info={"k": k}))

        # rewire: greedy conductance at n = 14, sdrf at n = 20, ppr at n = 1500
        e14 = connected_gnp_edges(rng("greedy"), 14, 0.3, 1)
        f = self._write(f"r{r}-g14.txt", serialize(14, e14))
        ops.append(self._op(f"r{r}.rewire.greedy14", "rewire.greedy", "groc",
                            ["rewire", "greedy", f, "1", "--objective", "conductance"],
                            _check_greedy_conductance(e14), exact=_rewire_exact))
        e = connected_gnp_edges(rng("sdrf"), 20, 0.3, 1)
        f = self._write(f"r{r}-sdrf20.txt", serialize(20, e))
        ops.append(self._op(f"r{r}.rewire.sdrf20", "rewire.sdrf", "groc",
                            ["rewire", "sdrf", f, "4", "--removal-fraction", "0.25"],
                            _check_rewire(e, 4, additions_only=False), exact=_rewire_exact))
        e = sparse_connected_edges(rng("ppr").randrange(1 << 30), 1500, 8.0)
        f = self._write(f"r{r}-ppr1500.txt", serialize(1500, e))
        ops.append(self._op(f"r{r}.rewire.ppr1500", "rewire.ppr", "groc", ["rewire", "ppr", f, "10"],
                            _check_rewire(e, 10, additions_only=True), exact=_edits_only))

        # reduce groc|gros at h.n = 4 and 8, each followed by verify; reduce groc at h.n = 10
        units = [[op] for op in ops]
        for problem, hn, lo, hi, extra in (
            ("groc", 4, 2, 8, []), ("groc", 8, 4, 16, []),
            ("gros", 4, 8, 12, []), ("gros", 8, 16, 24, []),
            ("groc", 10, 5, 20, ["--exact-limit-n", "10"]),
        ):
            red_rng = rng(f"reduce-{problem}{hn}")
            h = _max_degree_3(red_rng, hn)
            b = red_rng.randint(lo, hi)
            f = self._write(f"r{r}-h{problem}{hn}.txt", serialize(hn, h))
            prefix = f"r{r}-red-{problem}{hn}"
            units.append([self._op(f"r{r}.reduce.{problem}{hn}", "reduce", problem,
                                   ["reduce", problem, f, str(b), "--out-prefix", prefix, *extra],
                                   self._check_reduce(problem, hn, h, b, prefix), exact=_stdout)])
            if hn <= 8:
                units[-1].append(self._op(f"r{r}.verify.{problem}{hn}", "verify", problem,
                                          ["verify", f"{prefix}.cert.json"], _check_verify, exact=_stdout,
                                          follows=True))
            elif r == 0:
                self.h10_cert = f"{prefix}.cert.json"
        return spread_in_time(units, r)

    # -- checks -------------------------------------------------------------------------

    def _check_analyze(self, n, edges, exact_phi, dense_ref=None):
        ref = None
        if dense_ref or n <= 512:
            lam = np.linalg.eigvalsh(normalized_laplacian_dense(n, edges))
            mu = np.linalg.eigvalsh(propagation_dense(n, edges))
            ref = (float(lam[1]), float(mu[-2]), float(mu[0]))
        phi = phi_oracle(n, edges) if exact_phi else None

        def check(proc):
            if proc.returncode != 0:
                return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            rep = json.loads(proc.stdout)
            got = (rep["lambda2"], rep["mu2"], rep["mu_min"])
            problems = []
            if (rep["n"], rep["m"], rep["connected"]) != (n, len(edges), True):
                problems.append("n, m or connectivity wrong")
            if ref is not None and max(abs(a - b) for a, b in zip(got, ref)) > AGREE:
                problems.append(f"spectra {got} != dense reference {ref}")
            if n > 512 and abs(rep["mu2"] - (3 * (1 - rep["lambda2"]) + 1) / 4) > AGREE:
                problems.append(f"regular identity broken: {got}")
            if phi is not None and rep.get("phi_exact") != f"{phi.numerator}/{phi.denominator}":
                problems.append(f"phi {rep.get('phi_exact')} != {phi}")
            return problems

        return check

    def _check_reduce(self, problem, hn, h, b, prefix):
        width = bisection_width_oracle(hn, h)

        def check(proc):
            if proc.returncode != 0:
                return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            with open(os.path.join(self.dir, f"{prefix}.cert.json")) as fh:
                text = fh.read()
            if text != proc.stdout:
                return ["stdout differs from the certificate file"]
            cert = json.loads(text)
            problems = []
            if cert["kind"] != problem or _parse_text(cert["instance"]["graph"]) != (hn, h):
                problems.append("certificate does not hold the instance")
            if cert["bisection"] is None or cert["bisection"]["width"] != width:
                problems.append(f"bisection {cert['bisection']} != oracle width {width}")
            n_g, g_edges = _parse_text(cert["embedding"]["graph"])
            deg = [0] * n_g
            for u, v in g_edges:
                deg[u] += 1
                deg[v] += 1
            if set(deg) != {3} or {e for e in g_edges if e[1] < hn} != set(h):
                problems.append("embedding is not 3-regular with H induced")
            return problems

        return check

    # -- what the trace run adds --------------------------------------------------------

    def setup_checks(self, seed):
        """`analyze` on the Lanczos path against dense eigh just above DENSE_LIMIT."""
        n = 520
        edges = regular_edges(rng_for(seed, "setup520"), n, 3)
        f = self._write("setup-reg520.txt", serialize(n, edges))
        proc = self._call(["analyze", f, "--format", "json"])
        return [f"n = {n}: {p}" for p in self._check_analyze(n, edges, False, dense_ref=True)(proc)]

    def trace_data(self, out):
        """Spans and counters from the launcher's file for each traced command."""
        spans, counters, self.imports_ms = [], {}, []
        for op_id, _, _, _ in out["traced"]:
            path = os.path.join(self.trace_dir, f"{op_id}.json")
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                data = json.load(fh)
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, o] for n, s, e, p, o in data["spans"]]
            for k, v in data["counters"].items():
                counters[k] = max(counters.get(k, 0), v) if k == "spectral.max_residual" else counters.get(k, 0) + v
            self.imports_ms.append(data["import_ms"])
        return spans, counters

    def outcomes(self, rows):
        out = {}
        for op, _, proc, problems in rows:
            if op.kind.startswith("decide.") and not problems:
                rep = json.loads(proc.stdout)
                w = rep["witness"]
                first = None if w is None else witness_index(
                    9, op.info["k"], [tuple(p) for p in w["add"] + w["remove"]])
                out[op.id] = (op.group, rep["answer"], first)
        return out

    def trace_extras(self, rows, out):
        """Import and output sizes, analyze repeated once, and the contract probes."""
        stdout = [len(proc.stdout.encode()) for _, _, proc, _ in rows]
        m = {
            "cli.import_ms": sum(self.imports_ms) / max(1, len(self.imports_ms)),
            "cli.stdout_bytes": sum(stdout),
            "workload.cli_import_share": sum(self.imports_ms) / sum(ms for _, ms, _, _ in rows),
            "reductions.certificate_bytes": sum(b for (op, _, _, _), b in zip(rows, stdout) if op.kind == "reduce"),
        }
        differ = spectra_differ = 0
        for op, _, proc, problems in rows:
            if op.repeat and not problems:
                again = out["repeats"][op.id].stdout
                differ += again != proc.stdout
                a, b = json.loads(proc.stdout), json.loads(again)
                spectra_differ += any(a[k] != b[k] for k in ("lambda2", "mu2", "mu_min"))
        m["cli.nonidentical_outputs"] = differ
        m["spectral.nonidentical_repeats"] = spectra_differ
        decide_gros = next(op for op, _, _, _ in rows if op.kind == "decide.gros")
        probes = [
            (["verify", self.h10_cert, "--exact-limit-n", "10"], (0,)),
            (["decide", "gros", decide_gros.info["args"][2], "1", "-1/2"], (0, 1)),
        ]
        m["cli.contract_probe_failures"] = sum(self._call(args).returncode not in ok for args, ok in probes)
        return m


def _stdout(proc):
    return proc.stdout


def _analyze_exact(proc):
    rep = json.loads(proc.stdout)
    return json.dumps({k: rep.get(k) for k in ("n", "m", "connected", "phi_exact", "phi_witness")}, sort_keys=True)


def _rewire_exact(proc):
    rep = json.loads(proc.stdout)
    return json.dumps({"edits": rep["edits"], "trace": rep["trace"],
                       "phi": [rep["before"].get("phi_exact"), rep["after"].get("phi_exact")]}, sort_keys=True)


def _edits_only(proc):
    return json.dumps(json.loads(proc.stdout)["edits"], sort_keys=True)


def _check_decide(problem, edges, witness, best):
    expect = "yes" if witness is not None else "no"
    want = edit_json(frozenset(edges), witness) if witness is not None else None

    def check(proc):
        if proc.returncode != (0 if expect == "yes" else 1):
            return [f"exit {proc.returncode} for a designed {expect}: {proc.stderr.strip()[-200:]}"]
        rep = json.loads(proc.stdout)
        problems = []
        if rep["answer"] != expect or rep["witness"] != want:
            problems.append(f"answer {rep['answer']} / witness {rep['witness']}, designed {expect} / {want}")
        if problem == "groc" and rep["value"] != float(best):
            problems.append(f"value {rep['value']} != {float(best)}")
        if problem == "gros" and abs(rep["value"] - best) > 1e-9:
            problems.append(f"value {rep['value']} != {best}")
        return problems

    return check


def _check_greedy_conductance(edges):
    """The best strictly improving single toggle, first in pair order on ties."""
    singles = list(toggle_sets(14, 1))
    phis = phi_of_toggles(14, edges, singles)
    best_i = max(range(1, len(singles)), key=lambda i: (phis[i], -i))
    if phis[best_i] > phis[0]:
        want_edits, want_trace = edit_json(frozenset(edges), singles[best_i]), [float(phis[0]), float(phis[best_i])]
    else:
        want_edits, want_trace = edit_json(frozenset(edges), ()), [float(phis[0])]

    def check(proc):
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        rep = json.loads(proc.stdout)
        if rep["edits"] != want_edits or rep["trace"] != want_trace:
            return [f"greedy {rep['edits']} / {rep['trace']} != oracle {want_edits} / {want_trace}"]
        return []

    return check


def _check_rewire(edges, budget, additions_only):
    def check(proc):
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        edits = json.loads(proc.stdout)["edits"]
        add = {tuple(p) for p in edits["add"]}
        remove = {tuple(p) for p in edits["remove"]}
        problems = []
        if len(add) + len(remove) > budget:
            problems.append(f"{len(add) + len(remove)} edits over a budget of {budget}")
        if add & edges or not remove <= edges or (additions_only and remove):
            problems.append("edits do not fit the input graph")
        return problems

    return check


def _check_verify(proc):
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    return [] if json.loads(proc.stdout)["match"] is True else ["verify reported a mismatch"]

