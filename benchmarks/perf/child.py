"""One workload in its own fresh interpreter, driven over stdin/stdout.

The runner starts one of these per workload (``PYTHONHASHSEED=0``), so
peak RSS and every cache are per workload, and can interleave the trials
of several live children.  Protocol, one line each way:

* child -> ``ready {json}`` once set-up (database, reference answers, warm
  state, shape assertions, untimed warm-up trial) is done;
* ``trial [clients]`` -> one untraced trial, ``traced`` -> one trial with the
  layer hooks installed (one client), ``aux`` -> the fixed side
  measurements, ``finish`` -> tear down, write the kept spans, exit;
* each command is answered by one ``result {json}`` line.

Anything the program under test prints goes to stderr; stdout carries the
protocol only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from typing import Any, Optional, TextIO

from benchmarks.perf import trace
from benchmarks.perf.workloads import (
    WORKLOAD_CLASSES,
    Workload,
    monitor_overhead,
    scan_rates,
)

OUT_DIR = Path(__file__).resolve().parent / "out"


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process to the highest allowed CPU; ``None`` if unsupported.

    Any cross-thread hand-off (the service's executor hop, loop wake-ups)
    swings up to 2x with where the host schedules the two threads; on one
    CPU it does not.  The highest CPU is the least likely to take the
    host's interrupts.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def traced_trial(workload: Workload, tracer: trace.Tracer) -> dict[str, Any]:
    windows: list[tuple[float, float]] = []
    tracer.install()
    try:
        result = workload.run_trial(clients=1, windows=windows, visit_rows=True)
    finally:
        tracer.uninstall()
    summary = trace.summarize(tracer.drain(), windows)
    result["spans"] = summary.pop("resolved")
    result["trace"] = summary
    result["dropped"] = sorted(tracer.dropped)
    return result


def serve(workload: Workload, commands: TextIO, protocol: TextIO) -> None:
    tracer = trace.Tracer()
    kept_spans: list[trace.Span] = []

    def reply(payload: dict[str, Any]) -> None:
        protocol.write("result " + json.dumps(payload) + "\n")
        protocol.flush()

    for line in commands:
        command, *arguments = line.split()
        if command == "trial":
            clients = int(arguments[0]) if arguments else None
            reply(workload.run_trial(clients=clients))
        elif command == "traced":
            result = traced_trial(workload, tracer)
            kept_spans = result.pop("spans")  # the latest trial's only
            reply(result)
        elif command == "aux":
            reply({**monitor_overhead(workload), **scan_rates(workload)})
        elif command == "finish":
            problems = workload.finish()
            written = None
            if kept_spans:
                OUT_DIR.mkdir(exist_ok=True)
                written = str(OUT_DIR / f"trace-{workload.name}.jsonl")
                trace.write_spans(written, kept_spans)
            reply({
                "problems": problems,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "trace_file": written,
            })
            return
        else:
            raise ValueError(f"unknown command {command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr
    cpu = pin_to_one_cpu()
    workload = WORKLOAD_CLASSES[args.workload](args.seed, quick=args.quick)
    workload.prepare()
    warm_up_ops = min(workload.ops, max(2 * len(workload.sqls), workload.ops // 4))
    warm_up = workload.run_trial(ops=warm_up_ops)
    gc.collect()
    gc.freeze()  # set-up garbage never gets rescanned; GC itself stays on
    ready = {
        "workload": workload.name,
        "seed": args.seed,
        "ops_per_trial": workload.ops,
        "statements": len(workload.sqls),
        "clients": workload.clients,
        "transport": workload.transport,
        "shape": workload.shape,
        "warm_up": {"ops": warm_up["attempted"], "failed": warm_up["failed"]},
        "controls": {
            "cpu_affinity": cpu,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "gc_frozen_objects": gc.get_freeze_count(),
            "gc_enabled": gc.isenabled(),
        },
    }
    protocol.write("ready " + json.dumps(ready) + "\n")
    protocol.flush()
    serve(workload, sys.stdin, protocol)
    return 0


if __name__ == "__main__":
    sys.exit(main())
