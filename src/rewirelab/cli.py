"""Command-line surface: analyze, decide, rewire, reduce, verify, gen.

Exit codes are part of the contract: 0 yes/success, 1 no, 2 parse error,
3 resource or exact-limit exhaustion, 4 invalid parameters, 5 verification
mismatch.  Output is deterministic for a fixed seed: JSON is emitted with
sorted keys and thresholds are parsed as exact rationals ("p/q" or decimal
strings), so no decimal noise enters a decision.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .cuts import (
    EXACT_BISECTION_LIMIT,
    EXACT_CONDUCTANCE_LIMIT,
    cheeger_consistent,
    cheeger_interval,
    conductance_exact,
)
from .errors import (
    ConvergenceFailure,
    ExactLimitExceeded,
    MalformedEdgeLine,
    MalformedHeader,
    RewireLabError,
    SearchSpaceTooLarge,
)
from .graph import Graph, apply_edits, generate, parse_graph, serialize_graph
from .reductions import (
    DEFAULT_SEED,
    VERIFY_H_LIMIT,
    BisectionInstance,
    ReductionConstants,
    certificate_json_text,
    certificate_to_json,
    rebuild_certificate,
    reduce_to_groc,
    reduce_to_gros,
    scale_instance_between,
    scale_instance_large,
    verify_reduction,
)
from .rewiring import (
    MAX_EDIT_CANDIDATES,
    GrocInstance,
    GrosInstance,
    decide_groc,
    decide_gros,
    decision_to_json,
    edit_set_to_json,
    greedy_rewire,
    ppr_rewire,
    sdrf_like_rewire,
)
from .spectral import spectral_summary
from .sturm import EXACT_EIGEN_LIMIT

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_PARAMS = 4
EXIT_MISMATCH = 5

_PARSE_ERRORS = (MalformedHeader, MalformedEdgeLine, json.JSONDecodeError, OSError)
_LIMIT_ERRORS = (ExactLimitExceeded, SearchSpaceTooLarge, ConvergenceFailure)


_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a '-p/q' token as a negative rational argument, not as a flag.

    argparse already does this for '-1' and '-0.5'; subparsers inherit the
    class, so every command's thresholds parse alike.
    """

    def _parse_optional(self, arg_string):
        if _NEGATIVE_FRACTION.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


_GLOBAL_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "format": "text",
    "exact_limit_n": None,
    "exact_limit_k": None,
    "output": "-",
}


def _global_flags() -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="deterministic seed (fixed default, never time-based)")
    common.add_argument("--format", choices=("json", "csv", "text"), help="report format for analyze")
    common.add_argument("--exact-limit-n", type=int, help="override the exact-enumeration vertex limits")
    common.add_argument("--exact-limit-k", type=int, help="override the decision-solver candidate cap")
    common.add_argument("--output", help="output path, '-' for stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _ArgumentParser(
        prog="rewirelab",
        description="Conductance / spectral-gap graph rewiring analysis and reductions",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"rewirelab {__version__}")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file", parents=[common])
    p.add_argument("family", choices=("complete", "cycle", "gnp", "random_regular", "barbell"))
    p.add_argument("params", nargs="+", help="family parameters, e.g. 'cycle 4' or 'gnp 10 0.3'")

    p = sub.add_parser("analyze", help="spectral and conductance report for a graph file", parents=[common])
    p.add_argument("graph_file")

    p = sub.add_parser("decide", help="exact rewiring decision; exit 0 = yes, 1 = no", parents=[common])
    p.add_argument("problem", choices=("groc", "gros"))
    p.add_argument("graph_file")
    p.add_argument("budget", type=int)
    p.add_argument("threshold", help="exact rational: 'p/q', integer, or decimal string")
    p.add_argument("--mode", choices=("signed", "absolute"), default="signed")

    p = sub.add_parser("rewire", help="run a rewiring heuristic and report before/after metrics", parents=[common])
    p.add_argument("heuristic", choices=("greedy", "sdrf", "ppr"))
    p.add_argument("graph_file")
    p.add_argument("budget", type=int)
    p.add_argument("--objective", choices=("spectral_gap", "conductance"), default="spectral_gap")
    p.add_argument("--removal-fraction", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--cap", type=int, default=4, help="per-node keep cap for ppr")

    p = sub.add_parser("reduce", help="build a bisection reduction instance plus certificate", parents=[common])
    p.add_argument("problem", choices=("groc", "gros"))
    p.add_argument("bisection_file")
    p.add_argument("budget", type=int)
    p.add_argument("--c1", default=None, help="expander constant c1 as an exact rational")
    p.add_argument("--c2", default="1/10")
    p.add_argument("--c3", default="1/2")
    p.add_argument("--pad-floor", type=float, default=0.0)
    p.add_argument("--max-retries", type=int, default=50)
    p.add_argument("--allow-unscaled", action="store_true", help="skip instance scaling (desk-scale exploration)")
    p.add_argument("--out-prefix", default="reduction")

    p = sub.add_parser(
        "verify", help="recompute a certificate from its inputs and compare byte-for-byte", parents=[common]
    )
    p.add_argument("certificate_file")

    return parser


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _exact_limit_n(args, default: int) -> int:
    """--exact-limit-n if given (0 included), else the command's own default."""
    return default if args.exact_limit_n is None else args.exact_limit_n


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _metrics(g: Graph, exact_limit: int) -> dict:
    """Spectral and conductance numbers shared by analyze and rewire reports."""
    out: dict = {"n": g.n, "m": g.m, "connected": g.is_connected()}
    try:
        summary = spectral_summary(g)
        out["lambda2"] = summary.lambda2
        out["mu2"] = summary.mu2
        out["mu_min"] = summary.mu_min
        lo, hi = cheeger_interval(summary)
        out["cheeger_interval"] = [lo, hi]
    except RewireLabError as exc:
        out["spectral_error"] = str(exc)
    if 2 <= g.n <= exact_limit:
        cut = conductance_exact(g, exact_limit=exact_limit)
        out["phi"] = float(cut.phi)
        out["phi_exact"] = f"{cut.phi.numerator}/{cut.phi.denominator}"
        out["phi_witness"] = list(cut.subset)
    if "phi" in out and "lambda2" in out:
        out["cheeger_verdict"] = "pass" if cheeger_consistent(out["phi"], out["lambda2"]) else "fail"
    return out


def _format_analyze(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        keys = ["n", "m", "connected", "lambda2", "mu2", "mu_min", "phi", "cheeger_verdict"]
        header = ",".join(keys)
        row = ",".join(repr(report[k]) if isinstance(report.get(k), float) else str(report.get(k, "")) for k in keys)
        return f"{header}\n{row}\n"
    lines = [f"n = {report['n']}, m = {report['m']}, connected = {report['connected']}"]
    if "lambda2" in report:
        lines.append(f"lambda2 = {report['lambda2']:.6f}, mu2 = {report['mu2']:.6f}, mu_min = {report['mu_min']:.6f}")
        lo, hi = report["cheeger_interval"]
        lines.append(f"cheeger interval = [{lo:.6f}, {hi:.6f}]")
    else:
        lines.append(f"spectral summary unavailable: {report['spectral_error']}")
    if "phi" in report:
        lines.append(f"phi = {report['phi_exact']} = {report['phi']:.6f}, witness = {report['phi_witness']}")
    if "cheeger_verdict" in report:
        lines.append(f"cheeger verdict: {report['cheeger_verdict']}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    g = generate(args.family, args.params, seed=args.seed)
    _emit(serialize_graph(g), args.output)
    return EXIT_YES


def _cmd_analyze(args) -> int:
    g = _read_graph(args.graph_file)
    limit = _exact_limit_n(args, EXACT_CONDUCTANCE_LIMIT)
    report = _metrics(g, limit)
    _emit(_format_analyze(report, args.format), args.output)
    return EXIT_YES


def _cmd_decide(args) -> int:
    g = _read_graph(args.graph_file)
    threshold = Fraction(args.threshold)
    cap = MAX_EDIT_CANDIDATES if args.exact_limit_k is None else args.exact_limit_k
    if args.problem == "groc":
        limit = _exact_limit_n(args, EXACT_CONDUCTANCE_LIMIT)
        decision = decide_groc(GrocInstance(g, args.budget, threshold), exact_limit=limit, max_candidates=cap)
        objective = "conductance"
    else:
        limit = _exact_limit_n(args, EXACT_EIGEN_LIMIT)
        inst = GrosInstance(g, args.budget, threshold, args.mode)
        decision = decide_gros(inst, exact_limit=limit, max_candidates=cap)
        objective = "mu2"
    _emit(json.dumps(decision_to_json(decision, objective), sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_YES if decision.answer == "yes" else EXIT_NO


def _cmd_rewire(args) -> int:
    g = _read_graph(args.graph_file)
    limit = _exact_limit_n(args, EXACT_CONDUCTANCE_LIMIT)
    if args.heuristic == "greedy":
        edits, trace = greedy_rewire(g, args.budget, objective=args.objective, exact_limit=limit)
    elif args.heuristic == "sdrf":
        edits, trace = sdrf_like_rewire(g, args.budget, args.removal_fraction)
    else:
        edits, trace = ppr_rewire(g, args.alpha, args.epsilon, args.cap)
        if args.budget >= 0 and len(edits.additions) > args.budget:
            keep = sorted(edits.additions)[: args.budget]
            edits = type(edits)(additions=frozenset(keep), removals=frozenset())
    after = apply_edits(g, edits)
    report = {
        "heuristic": args.heuristic,
        "edits": edit_set_to_json(edits),
        "trace": [list(t) if isinstance(t, tuple) else t for t in trace],
        "before": _metrics(g, limit),
        "after": _metrics(after, limit),
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_YES


def _default_c1(problem: str) -> str:
    return "1/10" if problem == "groc" else "1/64"


def _cmd_reduce(args) -> int:
    h = _read_graph(args.bisection_file)
    inst = BisectionInstance(h, args.budget)
    consts = ReductionConstants(
        c1=Fraction(args.c1 or _default_c1(args.problem)),
        c2=Fraction(args.c2),
        c3=Fraction(args.c3),
    )
    limit = _exact_limit_n(args, EXACT_BISECTION_LIMIT)
    if args.problem == "groc":
        if not args.allow_unscaled:
            inst = scale_instance_between(inst, exact_limit=limit)
        target, cert = reduce_to_groc(inst, consts, args.pad_floor, args.seed, args.max_retries)
    else:
        if not args.allow_unscaled:
            inst = scale_instance_large(inst, exact_limit=limit)
        target, cert = reduce_to_gros(
            inst, consts, args.pad_floor, args.seed, args.max_retries,
            require_scaled=not args.allow_unscaled,
        )
    verify_limit = _exact_limit_n(args, VERIFY_H_LIMIT)
    if inst.h.n <= verify_limit:
        cert = verify_reduction(inst, cert, h_limit=verify_limit)
    graph_path = f"{args.out_prefix}.graph.txt"
    cert_path = f"{args.out_prefix}.cert.json"
    with open(graph_path, "w") as fh:
        fh.write(serialize_graph(cert.embedding.g))
    cert_text = certificate_json_text(cert)
    with open(cert_path, "w") as fh:
        fh.write(cert_text)
    _emit(cert_text, args.output)
    return EXIT_YES


def _diff_json(a, b, path="") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        diffs = []
        for key in sorted(set(a) | set(b)):
            diffs += _diff_json(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        return diffs
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = []
        for i, (x, y) in enumerate(zip(a, b)):
            diffs += _diff_json(x, y, f"{path}[{i}]")
        return diffs
    if a != b:
        return [f"{path}: recorded {a!r} != recomputed {b!r}"]
    return []


def _cmd_verify(args) -> int:
    with open(args.certificate_file) as fh:
        recorded = json.load(fh)
    rebuilt = rebuild_certificate(recorded, h_limit=_exact_limit_n(args, VERIFY_H_LIMIT))
    diffs = _diff_json(recorded, certificate_to_json(rebuilt))
    if diffs:
        report = {"match": False, "diffs": diffs}
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
        return EXIT_MISMATCH
    report = {
        "match": True,
        "agreement": rebuilt.agreement,
        "bisection_width": rebuilt.bisection_width,
        "threshold": recorded["threshold"],
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_YES


_COMMANDS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "decide": _cmd_decide,
    "rewire": _cmd_rewire,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, value)
    try:
        return _COMMANDS[args.command](args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _LIMIT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (RewireLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
