"""rewirelab benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload exact-decide --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the benchmark imports that checkout's src/.
One operation is in flight at a time.  A run is a whole number of rounds,
max(1, round(seconds / nominal round time)), so every run at a given
--seconds executes the same seeded operation list and the ranks behind each
median and tail stay fixed; on the reference machine that list takes about
--seconds, except that cli-pipeline's one round takes about a minute (see
workloads/cli_pipeline.py).

This process generates the inputs and works out the expected answers; the
program runs in worker.py processes, which time only the calls into rewirelab
and report set-up time (import, building the program's input objects,
warm-up) and peak memory.  The outputs come back here to be checked.

--trace 0 prints the end-to-end metrics.  --trace 1 takes half the rounds
(at least one), runs every other operation of them plainly, then installs
spans around every layer's entry points and runs all of them on fresh input
objects; it prints the per-layer metrics, including the tracing overhead
measured on the operations both passes ran.  Metric
names, units and directions live in BENCHMARK.json.  The last stdout line is
the result JSON; a run record goes to perfbench/out/.

--write-reference records the exact outputs of the default seed as digests in
perfbench/reference/<workload>.json; later runs on that seed must match them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pickle
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    "exact-decide": "workloads.exact_decide",
    "spectral-heuristics": "workloads.spectral_heuristics",
    "cli-pipeline": "workloads.cli_pipeline",
}
#: Worker processes per untraced run; each runs every WORKERS-th operation.
WORKERS = 3
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 170
#: Layer of the per-layer metrics whose name does not start with it.
METRIC_LAYER = {"workload.cli_import_share": "cli"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def _metric_specs() -> dict:
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _run_worker(wl, ops, trace: int, plain_ids=None) -> dict:
    """Run the program side in worker.py and return what it pickled."""
    os.makedirs(common.OUT, exist_ok=True)
    job = os.path.join(common.OUT, f"{wl.NAME}-{os.getpid()}-job.pkl")
    result = os.path.join(common.OUT, f"{wl.NAME}-{os.getpid()}-result.pkl")
    header = {"module": wl.MODULE, "trace": trace, "plain_ids": plain_ids, **wl.job_header()}
    with open(job, "wb") as fh:
        pickle.dump(header, fh)
        pickle.dump([(op.id, op.call[0], op.call[1], op.repeat) for op in ops], fh)
    try:
        proc = subprocess.run([sys.executable, WORKER, job, result], capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result, "rb") as fh:
            return pickle.load(fh)
    finally:
        for path in (job, result):
            if os.path.exists(path):
                os.remove(path)


def _shares(ops, k: int) -> list[list]:
    """Deal the ops round-robin to k workers; an op that `follows` stays with
    the one before it."""
    units: list[list] = []
    for op in ops:
        if op.follows and units:
            units[-1].append(op)
        else:
            units.append([op])
    return [[op for unit in units[i::k] for op in unit] for i in range(k)]


def _check(ops, timed, seed, reference, new_reference):
    """Pair each op with its timing and result; returns [(op, ms, result, problems)]."""
    rows = []
    for op, (op_id, ms, result, error) in zip(ops, timed):
        assert op_id == op.id
        problems = [error] if error else list(op.check(result))
        if not problems and op.exact is not None and seed == common.DEFAULT_SEED:
            d = common.digest(op.exact(result))
            new_reference[op.id] = d
            if op.id in reference and reference[op.id] != d:
                problems.append(f"exact output differs from the reference ({d[:12]} != {reference[op.id][:12]})")
        rows.append((op, ms, result, problems))
    return rows


def _latency_metrics(rows) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    groups = {"op": rows}
    for g in ("groc", "gros"):
        groups[g] = [row for row in rows if row[0].group == g]
    for prefix, members in groups.items():
        summary = common.latency_summary(prefix, [ms if not problems else math.inf for _, ms, _, problems in members])
        metrics[f"{prefix}_p50_ms"] = summary[f"{prefix}_p50_ms"]
        metrics[f"{prefix}_tail_ms"] = summary[f"{prefix}_tail_ms"]
        detail[prefix] = summary
    return metrics, detail


def _time_shares(rows) -> dict:
    """Share of the timed wall time per latency group and per shape."""
    total = sum(ms for _, ms, _, _ in rows)
    shares: dict = {}
    for op, ms, _, _ in rows:
        for key in (op.group, op.kind):
            shares[key] = shares.get(key, 0.0) + ms / total
    return dict(sorted(shares.items()))


def _layer_of(name: str) -> str:
    return METRIC_LAYER.get(name, name.split(".")[0])


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(common.SRC, "rewirelab", "__init__.py")):
        print(f"error: no rewirelab sources under {common.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    specs = _metric_specs()
    sys.path.insert(0, common.SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (common.SRC, os.environ.get("PYTHONPATH")) if p)

    wl = importlib.import_module(WORKLOADS[args.workload]).Workload()
    rounds = max(1, round(args.seconds / wl.NOMINAL_ROUND_S))
    if args.trace:
        rounds = max(1, rounds // 2)
    ops = [op for r in range(rounds) for op in wl.round_ops(args.seed, r)]
    setup_problems = wl.setup_checks(args.seed)

    if args.trace == 0:
        # Each worker process sets up and runs a WORKERS-th of the operations;
        # pooling fresh processes averages out how fast one happens to run.
        parts = [_run_worker(wl, share, 0) for share in _shares(ops, WORKERS)]
        timed = {row[0]: row for part in parts for row in part["plain"]}
        out = {"plain": [timed[op.id] for op in ops], "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}
    else:
        # untraced pass over every other unit of ops, for the tracing overhead
        plain_ops = _shares(ops, 2)[0]
        parts = [_run_worker(wl, ops, 1, [op.id for op in plain_ops])]
        out = parts[0]
    setups = [p["setup_s"] for p in parts]

    reference = {} if args.write_reference else common.load_reference(wl.NAME)
    new_reference: dict = {}
    plain = _check(ops if args.trace == 0 else plain_ops, out["plain"], args.seed, reference, new_reference)
    record = {"args": vars(args), "machine": common.machine_record(), "rounds": rounds,
              "setup_s": setups, "import_s": [p["import_s"] for p in parts]}
    if args.trace == 0:
        rows = plain
        metrics, record["latency"] = _latency_metrics(rows)
        ok = [row for row in rows if not row[3]]
        metrics["ops_per_s"] = len(ok) / (sum(ms for _, ms, _, _ in rows) / 1e3)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        names = specs["end_to_end"]
    else:
        traced = _check(ops, out["traced"], args.seed, reference, new_reference)
        rows = plain + traced
        spans, counters = wl.trace_data(out)
        metrics = tracing.layer_metrics(tracing.aggregate(spans), counters)
        metrics.update(tracing.op_metrics(spans, wl.outcomes(traced)))
        metrics.update(wl.trace_extras(traced, out))
        metrics["proc.cpu_s"] = out["cpu_s"]
        metrics["proc.cpu_per_wall"] = out["cpu_s"] / out["wall_s"]
        in_plain = {op.id for op in plain_ops}
        traced_ms = sum(ms for op, ms, _, _ in traced if op.id in in_plain)
        metrics["proc.tracing_overhead_share"] = traced_ms / sum(ms for _, ms, _, _ in plain) - 1.0
        names = specs["per_layer"]
        os.makedirs(common.OUT, exist_ok=True)
        trace_path = os.path.join(common.OUT, f"{wl.NAME}-seed{args.seed}-spans.jsonl")
        with open(trace_path, "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
        record["spans"] = trace_path
        # A metric that was not produced is 0 only where its layer made no calls.
        layers = {span[0].split(".")[0] for span in spans}
        for name in names:
            if name not in metrics:
                if _layer_of(name) in layers:
                    setup_problems.append(f"{name} not produced although its layer has spans")
                metrics[name] = 0

    metrics = {name: metrics[name] for name in names}
    failed = [(op.id, problems) for op, _, _, problems in rows if problems] + [("setup", p) for p in setup_problems]
    n_failed = sum(1 for row in rows if row[3])
    record.update(
        metrics=metrics,
        failed_op_share=n_failed / len(rows),
        problems=failed[:50],
        latencies_ms=[[op.id, ms] for op, ms, _, _ in rows],
        time_shares=_time_shares(plain),
    )
    if args.write_reference:
        path = common.write_reference(wl.NAME, new_reference)
        print(f"wrote {len(new_reference)} reference digests to {path}")
    common.write_record(f"{wl.NAME}-seed{args.seed}-trace{args.trace}.json", record)
    wl.cleanup()

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {names[name]}")
    for prefix, summary in record.get("latency", {}).items():
        print(f"{prefix}_tail_ms is p{summary[f'{prefix}_tail_percentile']:.1f} of {summary[f'{prefix}_count']} samples")
    print("timed wall-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in record["time_shares"].items()
                                                  if k in ("groc", "gros")))
    print(f"failed_op_share = {record['failed_op_share']:.6g} over {len(rows)} operations")
    for op_id, problems in failed[:10]:
        print(f"FAILED {op_id}: {problems}")
    common.emit_result(not failed, len(rows), n_failed, metrics, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
