"""Per-layer metrics from the span dumps that trace_cli.py writes, one per command.

A span is [id, name, start, end, parent, thread id, extra].  Self time is a
span's duration minus the durations of its child spans on the same thread
(children on one thread are nested and sequential, so they never overlap).
Pool workers' top-level spans have the cli._sweep span as parent, on another
thread, so they are not subtracted from it; they make up cli.sweep.busy_frac.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def aggregate(dumps):
    """Metric name -> value; `<layer>.<function>.calls` and `.s` exist for every traced function."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    gflop = 0.0
    nnz = size = 0
    max_gen = 0
    parse_bytes = 0
    sweep_busy = sweep_capacity = 0.0
    for d in dumps:
        spans = {s[0]: s for s in d["spans"]}
        child_s = defaultdict(float)
        workers = defaultdict(float)
        for sid, name, start, end, parent, tid, extra in spans.values():
            if parent is None:
                continue
            if spans[parent][5] == tid:
                child_s[parent] += end - start
            else:
                workers[parent] += end - start
        for sid, name, start, end, parent, tid, extra in spans.values():
            calls[name] += 1
            self_s[name] += end - start - child_s[sid]
            if name == "convolution.convolve":
                gflop += 16.0 * float(4 ** extra["n"]) ** 3 / 1e9
            elif name == "grassmann.g_mul":
                nnz += extra["nnz"]
                size += 1 << extra["generators"]
                max_gen = max(max_gen, extra["generators"])
            elif name == "io.parse_array":
                parse_bytes += extra["bytes"]
            elif name == "cli._sweep":
                sweep_busy += workers[sid]
                sweep_capacity += extra["threads"] * (end - start)

    traced = set(dumps[0]["traced"]) if dumps else set()
    out = {}
    for name in traced:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    out["convolution.convolve.gflop"] = gflop
    out["grassmann.g_mul.nnz_frac"] = nnz / size if size else 0.0
    out["grassmann.g_mul.max_generators"] = max_gen
    out["io.parse_array.bytes"] = parse_bytes
    out["cli.import_s"] = statistics.median(d["import_s"] for d in dumps)
    out["cli.sweep.busy_frac"] = sweep_busy / sweep_capacity if sweep_capacity else 0.0
    return out
