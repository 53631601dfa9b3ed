"""What the in-process workloads share: the worker job and the trace data."""

from __future__ import annotations


class InProcess:
    #: Module that worker.py imports to build each call (see `make_call`).
    MODULE: str

    def job_header(self) -> dict:
        return {}

    def setup_checks(self, seed: int) -> list:
        return []

    def trace_data(self, out: dict) -> tuple[list, dict]:
        return out["spans"], out["counters"]

    def outcomes(self, rows: list) -> dict:
        return {}

    def trace_extras(self, rows: list, out: dict) -> dict:
        return {}

    def cleanup(self) -> None:
        pass
