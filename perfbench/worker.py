"""The timed side of a benchmark run, in a process of its own.

    python3 perfbench/worker.py JOB_FILE RESULT_FILE

run.py generates the inputs and works out the expected answers; this process
only loads the inputs, calls the program and times it, so its set-up time and
peak memory cover the program alone.  JOB_FILE holds two pickles: a header,
then the operations as (id, kind, data, repeat).  The worker

- imports rewirelab (in-process workloads), then builds the program's input
  objects for each of its operations and warms up: that is set-up;
- runs the operations one at a time, timing each call (with trace on, only
  those named in `plain_ids`), and with trace on runs all of them again on
  fresh input objects with spans installed, then repeats the operations
  marked `repeat` once, untraced.

It pickles the timings, results, spans and its peak resident memory to
RESULT_FILE.  For cli-pipeline it imports nothing beyond the standard library:
each operation is a `python -m rewirelab.cli` child, its peak memory is the
largest child's, and a child starts from this small process's high-water mark
rather than from run.py's.
"""

from __future__ import annotations

import importlib
import os
import pickle
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
CLI_TIMEOUT_S = 170


def vm_hwm_mb() -> float:
    """Peak resident memory of this process since exec.  ru_maxrss would also
    hold the high-water mark of the parent at the moment it spawned us."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class CliProgram:
    """Each call is a fresh `python -m rewirelab.cli` process; with tracing,
    launcher.py stands in for `-m rewirelab.cli` and writes spans per op."""

    def __init__(self, header):
        self.cwd = header["cwd"]
        self.trace_dir = None

    def import_program(self):
        pass

    def build(self, op_id, kind, args):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "rewirelab.cli", *args]
        else:
            cmd = [sys.executable, LAUNCHER, os.path.join(self.trace_dir, f"{op_id}.json"), op_id, "--", *args]
        return lambda: subprocess.run(cmd, cwd=self.cwd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def warm_up(self):
        subprocess.run([sys.executable, "-m", "rewirelab.cli", "--version"], capture_output=True,
                       timeout=CLI_TIMEOUT_S, check=True)

    def load(self):
        pass

    def install_tracing(self, header):
        self.trace_dir = header["trace_dir"]
        return None

    def stop_tracing(self, tracer):
        self.trace_dir = None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcessProgram:
    """Calls into the imported rewirelab; the workload module turns each
    operation's data into the program's input objects."""

    def __init__(self, header):
        self.module_name = header["module"]

    def import_program(self):
        self.rl = importlib.import_module("rewirelab")

    def load(self):
        sys.path.insert(0, HERE)
        self.wl = importlib.import_module(self.module_name)

    def build(self, op_id, kind, data):
        return self.wl.make_call(self.rl, kind, data)

    def warm_up(self):
        self.wl.warm_up(self.rl)

    def install_tracing(self, header):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        return tracer

    def stop_tracing(self, tracer):
        tracer.op = None  # spans are recorded only while an operation is set

    def peak_rss_mb(self):
        return vm_hwm_mb()


def run_pass(calls, tracer=None):
    out = []
    for op_id, fn in calls:
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.op = None
        out.append((op_id, ms, result, error))
    return out


def main() -> int:
    job_path, out_path = sys.argv[1:3]
    with open(job_path, "rb") as fh:
        header = pickle.load(fh)
        program = (CliProgram if header["module"] is None else InProcessProgram)(header)
        t0 = time.perf_counter()
        program.import_program()
        import_s = time.perf_counter() - t0
        program.load()
        ops = pickle.load(fh)

    def build_all():
        return [(op_id, program.build(op_id, kind, data)) for op_id, kind, data, _ in ops]

    t0 = time.perf_counter()
    calls = build_all()
    program.warm_up()
    out = {"import_s": import_s, "build_s": time.perf_counter() - t0}
    out["setup_s"] = out["import_s"] + out["build_s"]
    plain = header["plain_ids"]
    out["plain"] = run_pass(calls if plain is None else [c for c in calls if c[0] in set(plain)])
    out["peak_rss_mb"] = program.peak_rss_mb()
    if header["trace"]:
        tracer = program.install_tracing(header)
        calls = build_all()
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        out["traced"] = run_pass(calls, tracer)
        out["wall_s"], out["cpu_s"] = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if tracer is not None:
            out["spans"], out["counters"] = tracer.spans, dict(tracer.counters)
        program.stop_tracing(tracer)
        out["repeats"] = {op_id: program.build(op_id, kind, data)() for op_id, kind, data, repeat in ops if repeat}
    with open(out_path, "wb") as fh:
        pickle.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
