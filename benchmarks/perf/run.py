"""Benchmark runner: spawns the workload processes and reports the metrics.

Suite mode (what people run; from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf [--seed N] [--workload NAME]
        [--trace] [--quick] [--aa]

measures the four workloads one after the other.  Driver mode
(``BENCHMARK.json``'s command)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints one JSON object as the last line of
stdout: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Both modes measure a workload with the same procedure,
:func:`measure`; the traced run (:func:`trace_layers`) is always separate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf import metrics, stats, trace  # noqa: E402

#: Fresh interpreters per measurement: three ``setup_s`` and ``peak_rss_mb``
#: samples (the medians are reported), and the timed trials go round-robin
#: over three memory layouts.
SETUPS = 3


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not: an op failed)."""


# ----------------------------------------------------------------------
# One workload process
# ----------------------------------------------------------------------
class WorkloadProcess:
    """A live ``benchmarks.perf.child`` and the trials it has run."""

    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        self.name = name
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "benchmarks.perf.child",
            "--workload", name, "--seed", str(seed),
        ] + (["--quick"] if quick else [])
        self.spawned = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.ready: dict[str, Any] = {}
        self.setup_s = 0.0
        self.trials: list[dict[str, Any]] = []
        self.final: dict[str, Any] = {}

    def _read(self, tag: str) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith(tag + " "):
            self.kill()
            raise BenchmarkError(
                f"{self.name}: workload process "
                + (f"sent {line[:80]!r}" if line
                   else f"exited with code {self.process.returncode}")
                + f" while the runner waited for {tag!r}"
            )
        return json.loads(line[len(tag) + 1:])

    def wait_ready(self) -> dict[str, Any]:
        """Block until set-up is done; ``setup_s`` is process start -> ready."""
        self.ready = self._read("ready")
        self.setup_s = perf_counter() - self.spawned
        return self.ready

    def command(self, line: str) -> dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self._read("result")

    def trial(self, clients: Optional[int] = None) -> dict[str, Any]:
        result = self.command("trial" if clients is None else f"trial {clients}")
        self.trials.append(result)
        return result

    def finish(self) -> dict[str, Any]:
        """Tear the workload down and wait for the process to end."""
        self.final = self.command("finish")
        code = self.process.wait()
        if code != 0:
            raise BenchmarkError(f"{self.name}: workload process exit code {code}")
        self._close_pipes()
        return self.final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def successful(trials: Sequence[dict[str, Any]]) -> int:
    return sum(trial["attempted"] - trial["failed"] for trial in trials)


def counter_sum(trials: Sequence[dict[str, Any]], key: str) -> float:
    return sum(trial["counters"][key] for trial in trials)


def counter_per_op(trials: Sequence[dict[str, Any]], key: str) -> float:
    """Median over trials of a counter per successful op.

    Every trial replays the same ops, so the trials agree to the last bit
    and so does their median, however many trials the time budget allowed;
    a mean over all trials would round differently with their number.
    """
    return statistics.median(
        trial["counters"][key] / (trial["attempted"] - trial["failed"])
        for trial in trials if trial["attempted"] > trial["failed"]
    )


def trial_rates(trials: Sequence[dict[str, Any]]) -> list[float]:
    """Successful ops / trial wall of each trial, as the clients observed it."""
    return [
        (trial["attempted"] - trial["failed"]) / trial["wall_s"] for trial in trials
    ]


def wall_metrics(trials: Sequence[dict[str, Any]], name: str) -> dict[str, float]:
    """The three wall-clock metrics of a set of untraced trials."""
    medians = stats.slot_medians([trial["latency_ms"] for trial in trials])
    if not medians:
        raise BenchmarkError(f"{name}: no op succeeded, nothing to time")
    return {
        "ops_per_s": statistics.median(trial_rates(trials)),
        "latency_p50_ms": stats.percentile(medians, 50),
        "latency_p95_ms": stats.percentile(medians, 95),
    }


def storage_counters(trials: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Exact per-op counts from ``RunStats`` (the storage layer's metrics)."""
    keys = ("physical_reads", "logical_reads", "io_ms", "cpu_ms")
    return {
        name: counter_per_op(trials, key)
        for name, key in zip(metrics.STORAGE_COUNTERS, keys)
    }


def with_units(
    values: dict[str, Optional[float]], declared: Sequence[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared if metric["name"] in values
    }


# ----------------------------------------------------------------------
# The untraced measurement of one workload (no hooks installed, ever)
# ----------------------------------------------------------------------
def measure(
    name: str, seed: int, seconds: float, quick: bool = False
) -> dict[str, Any]:
    """Time trials of ``name`` in fresh interpreters for ``seconds``.

    Every process runs the same seeded op sequence, so a slot is the same
    request in all of them; the trials go round-robin over the processes,
    at least one each, until the next one would overshoot ``seconds`` by
    more than half a trial.  A process is set up when its first trial is
    due (nothing else runs meanwhile: set-up is measured too), which
    spreads the set-up samples over the run, so that a slow host phase of
    a few seconds costs one of them and the median does not see it.
    ``quick`` is one process and one trial.
    """
    processes = 1 if quick else SETUPS
    children: list[WorkloadProcess] = []
    try:
        timed = 0.0
        issued = 0
        while issued < processes or (
            not quick and timed + 0.5 * timed / issued < seconds
        ):
            if issued < processes:
                children.append(WorkloadProcess(name, seed, quick))
                children[-1].wait_ready()
            timed += children[issued % processes].trial()["wall_s"]
            issued += 1
        for child in children:
            child.finish()
    finally:
        for child in children:
            child.kill()

    trials = [trial for child in children for trial in child.trials]
    ready = children[0].ready
    attempted = sum(trial["attempted"] for trial in trials)
    ok = successful(trials)
    wall = wall_metrics(trials, name)
    setups = [child.setup_s for child in children]
    declared = metrics.declared()
    return {
        "workload": name,
        "seed": seed,
        "clients": ready["clients"],
        "transport": ready["transport"],
        "loop": "closed",
        "ops_per_trial": ready["ops_per_trial"],
        "statements": ready["statements"],
        "shape": ready["shape"],
        "controls": {
            **ready["controls"],
            "warm_up_ops": ready["warm_up"]["ops"],
            "trial_interleaving": f"round-robin over {len(children)} process(es)",
        },
        "samples": {
            "processes": len(children),
            "timed_trials": len(trials),
            "op_slots": ready["ops_per_trial"],
            "slots_beyond_p95": stats.beyond(ready["ops_per_trial"], 95),
            "trial_ops_per_s": trial_rates(trials),
            "setup_s": setups,
        },
        "attempted": attempted,
        "failed": attempted - ok,
        "problems": [
            problem for child in children for problem in child.final["problems"]
        ] + [
            f"{child.ready['warm_up']['failed']} warm-up op(s) failed"
            for child in children if child.ready["warm_up"]["failed"]
        ],
        "end_to_end": with_units({
            "setup_s": statistics.median(setups),
            "sim_ms_per_op": counter_per_op(trials, "sim_ms"),
            "peak_rss_mb": statistics.median(
                child.final["peak_rss_mb"] for child in children
            ),
        }, declared.end_to_end),
        "wall": with_units(wall, declared.per_layer),
        "counters": storage_counters(trials),
    }


# ----------------------------------------------------------------------
# Traced run of one workload -> per-layer metrics
# ----------------------------------------------------------------------
def trace_layers(
    name: str, seed: int, seconds: float, quick: bool, measured: dict[str, Any]
) -> dict[str, Any]:
    """Alternate untraced and traced one-client trials, then derive layers.

    Rounds repeat until ``seconds`` are used (at least one; ``quick`` is
    one).  A workload whose clients number several adds an untraced trial
    at that client count per round, for the queueing metrics.  The wall
    metrics are ``measured``'s: they come from :func:`measure` only.
    """
    child = WorkloadProcess(name, seed, quick)
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    native: list[dict[str, Any]] = []
    try:
        ready = child.wait_ready()
        used = 0.0
        while not plain or (
            not quick and used + 0.5 * used / len(plain) < seconds
        ):
            plain.append(child.trial(clients=1))
            traced.append(child.command("traced"))
            if ready["clients"] > 1:
                native.append(child.trial())
            used = sum(trial["wall_s"] for trial in plain + traced + native)
        aux = child.command("aux")
        final = child.finish()
    finally:
        child.kill()
    everything = plain + traced + native
    attempted = sum(trial["attempted"] for trial in everything)
    warm_up_failed = ready["warm_up"]["failed"]
    values, dropped = derive_per_layer(
        name, ready, plain, traced, native or plain, aux
    )
    values.update({key: entry["value"] for key, entry in measured["wall"].items()})
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": attempted - successful(everything),
        "problems": final["problems"]
        + ([f"{warm_up_failed} warm-up op(s) failed"] if warm_up_failed else []),
        "samples": {"traced_trials": len(traced), "untraced_trials": len(plain)},
        "trace_file": final["trace_file"],
        "dropped": dropped,
        "per_layer": with_units(values, metrics.declared().per_layer),
        "checks": shape_checks(name, values),
    }


def derive_per_layer(
    name: str,
    ready: dict[str, Any],
    plain: Sequence[dict[str, Any]],
    traced: Sequence[dict[str, Any]],
    native: Sequence[dict[str, Any]],
    aux: dict[str, float],
) -> tuple[dict[str, Optional[float]], list[str]]:
    """Every traced per-layer metric, ``None`` where dropped, and which.

    ``plain`` and ``traced`` are one-client trials without and with hooks,
    ``native`` untraced trials at the workload's own client count.  A layer
    the workload does not pass through reads what that means: no time, no
    calls, nothing waited or rejected, and a client-count ratio of 1.
    """
    summary = trace.merge_summaries([trial["trace"] for trial in traced])
    dropped_spans = {span for trial in traced for span in trial["dropped"]}
    ops = successful(traced)

    def per_op(span: str, key: str = "total_ms") -> float:
        return trace.span_total(summary, span, key) / ops

    def per_call(span: str) -> float:
        calls = trace.span_total(summary, span, "calls")
        return trace.span_total(summary, span, "total_ms") / calls if calls else 0.0

    cache = {
        key: sum(trial["plan_cache"][key] for trial in traced)
        for key in ("hits", "misses", "invalidations")
    }
    lookups = cache["hits"] + cache["misses"]
    execute_ms = trace.span_total(summary, "exec.execute", "total_ms")
    untraced_rate = statistics.median(trial_rates(plain))
    traced_rate = statistics.median(trial_rates(traced))
    queue_waits = [wait for trial in native for wait in trial.get("queue_wait_ms", ())]
    values: dict[str, Optional[float]] = {
        "sql.parse.ms_per_op": per_op("sql.parse"),
        "lifecycle.canonicalize.ms_per_op": per_op("lifecycle.canonicalize"),
        "lifecycle.plan.self_ms_per_op": per_op("lifecycle.plan", "self_ms"),
        "lifecycle.plancache.self_ms_per_op": per_op("lifecycle.plancache", "self_ms"),
        "lifecycle.plancache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "lifecycle.plancache.invalidations_per_op": cache["invalidations"] / ops,
        "optimizer.optimize.ms_per_call": per_call("optimizer.optimize"),
        "optimizer.optimize.calls_per_op": per_op("optimizer.optimize", "calls"),
        "analysis.planlint.ms_per_call": per_call("analysis.planlint"),
        "core.planner.build_ms_per_op": per_op("core.planner.build"),
        "core.feedback.record_run.ms_per_op": per_op("core.feedback.record_run"),
        "core.feedback.snapshot.ms_per_op": per_op("core.feedback.snapshot"),
        "core.feedback.epoch_bumps_per_op": sum(
            trial["epoch_bumps"] for trial in traced
        ) / ops,
        "core.monitors.observations_per_op": counter_sum(traced, "observations") / ops,
        "exec.execute.ms_per_op": execute_ms / ops,
        "exec.execute.share_pct": 100.0 * execute_ms / summary["op_ms"],
        "exec.rows_per_s": (
            counter_sum(traced, "rows_visited") / (execute_ms / 1000.0)
            if execute_ms else 0.0
        ),
        "exec.runstats.to_dict.ms_per_op": per_op("exec.runstats.to_dict"),
        "engine.execute.self_ms_per_op": per_op("engine.execute", "self_ms"),
        "service.handle.self_ms_per_op": per_op("service.handle", "self_ms"),
        "service.protocol.encode_ms_per_op": per_op("service.protocol.encode"),
        "service.protocol.decode_ms_per_op": per_op("service.protocol.decode"),
        "service.queue_wait_ms_p50": (
            stats.percentile(queue_waits, 50) if queue_waits else 0.0
        ),
        "service.queue_wait_ms_p95": (
            stats.percentile(queue_waits, 95) if queue_waits else 0.0
        ),
        # Client round trip minus the response's service_ms; an in-process
        # call has no transport.
        "service.transport.ms_per_op": (
            sum(trial["transport_ms"] for trial in native) / successful(native)
            if ready["transport"] == "TCP loopback" else 0.0
        ),
        "service.c2_latency_ratio": (
            wall_metrics(native, name)["latency_p50_ms"]
            / wall_metrics(plain, name)["latency_p50_ms"]
        ),
        "service.rejected_per_op": (
            sum(trial.get("rejected", 0) for trial in native)
            / sum(trial["attempted"] for trial in native)
        ),
        "trace.overhead_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "trace.unattributed_ms_per_op": summary["unattributed_ms"] / ops,
        **storage_counters(traced),
        **aux,
    }
    dropped = [
        metric for metric in values
        if dropped_spans.intersection(metrics.SPANS.get(metric, ()))
    ]
    for metric in dropped:
        values[metric] = None
    return values, dropped


def shape_checks(name: str, values: dict[str, Optional[float]]) -> dict[str, bool]:
    """The traced half of the asserted workload shape (set-up did the rest)."""
    share = values["exec.execute.share_pct"]
    if share is None:
        return {}
    if name.startswith("pipeline_"):
        return {"exec.execute.share_pct >= 90": share >= 90.0}
    if name == "svc_point_warm":
        return {"exec.execute.share_pct <= 35": share <= 35.0}
    return {}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def format_value(value: Optional[float]) -> str:
    if value is None:
        return "dropped"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def print_measured(report: dict[str, Any]) -> None:
    samples = report["samples"]
    print(
        f"\n== {report['workload']}  (closed loop, {report['clients']} client(s), "
        f"{report['transport']}; seed {report['seed']})"
    )
    print(
        f"   {report['ops_per_trial']} ops/trial over {report['statements']} "
        f"statements x {samples['timed_trials']} timed trial(s) in "
        f"{samples['processes']} process(es); {samples['op_slots']} op slots, "
        f"{samples['slots_beyond_p95']} beyond p95"
    )
    print(f"   attempted {report['attempted']}  failed {report['failed']}  "
          f"shape {report['shape']}")
    for metric in metrics.declared().end_to_end:
        entry = report["end_to_end"][metric["name"]]
        print(
            f"   {metric['name']:<18}{format_value(entry['value']):>14} "
            f"{entry['unit']:<5} ({metric['better']} is better, "
            f"bound {100 * metric['bound']:g} %)"
        )
    for name, entry in report["wall"].items():
        print(
            f"   {name:<18}{format_value(entry['value']):>14} "
            f"{entry['unit']:<5} (untraced wall clock; per-layer, no bound)"
        )
    for name, value in report["counters"].items():
        print(f"   {name:<32}{format_value(value):>14}  (exact, untraced)")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")


def print_per_layer(report: dict[str, Any]) -> None:
    print(
        f"\n-- {report['workload']} per layer  ({report['samples']['traced_trials']} "
        f"traced vs {report['samples']['untraced_trials']} untraced one-client "
        f"trial(s); spans in {report['trace_file']})"
    )
    for name, entry in report["per_layer"].items():
        note = "  (hook target missing)" if name in report["dropped"] else ""
        print(f"   {name:<42}{format_value(entry['value']):>16} {entry['unit']}{note}")
    for check, passed in report["checks"].items():
        print(f"   check {check}: {'ok' if passed else 'NOT MET'}")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")


def healthy(report: dict[str, Any]) -> bool:
    return (
        report["failed"] == 0
        and not report["problems"]
        and all(report.get("checks", {}).values())
    )


def driver_line(reports: Sequence[dict[str, Any]], section: str) -> str:
    """The contract's last stdout line, from the reports of one invocation.

    The metrics are the last report's ``section``.  A dropped metric is
    left out: a missing key cannot be mistaken for an improvement.
    """
    return json.dumps({
        "correct": all(healthy(report) for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            name: entry for name, entry in reports[-1][section].items()
            if entry["value"] is not None
        },
    })


# ----------------------------------------------------------------------
# --aa: the suite twice on the same checkout
# ----------------------------------------------------------------------
def compare_aa(
    first: dict[str, dict[str, Any]], second: dict[str, dict[str, Any]]
) -> bool:
    """Print both runs side by side; ``True`` when they agree within bounds."""
    agree = True
    print("\n== A/A: relative difference of run B against run A (base = A)")
    print(f"   {'workload':<20}{'metric':<18}{'A':>14}{'B':>14}{'diff':>9}{'bound':>8}")
    for name, a in first.items():
        b = second[name]
        rows = [
            (metric["name"], "end_to_end", metric["bound"])
            for metric in metrics.declared().end_to_end
        ] + [(wall, "wall", None) for wall in metrics.WALL]
        for metric, section, bound in rows:
            value_a = a[section][metric]["value"]
            value_b = b[section][metric]["value"]
            difference = (value_b - value_a) / value_a
            if metric == "sim_ms_per_op":
                ok, limit = value_a == value_b, "exact"
            elif bound is None:
                ok, limit = True, "none"
            else:
                ok, limit = abs(difference) <= bound, f"{100 * bound:g}%"
            agree = agree and ok
            print(
                f"   {name:<20}{metric:<18}{format_value(value_a):>14}"
                f"{format_value(value_b):>14}{100 * difference:>8.2f}%"
                f"{limit:>8}{'' if ok else '  EXCEEDED'}"
            )
        for key in ("ops_per_trial", "counters"):
            if a[key] != b[key]:
                agree = False
                print(f"   {name:<20}{key} differ: {a[key]} vs {b[key]}")
    return agree


# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=metrics.declared().workloads)
    parser.add_argument(
        "--seconds", type=float,
        help="driver mode: measure --workload for about this long and print "
        "the contract's JSON line (suite mode uses BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also run traced and report the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="1 timed trial, op counts / 20: a smoke run, not a measurement",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="run the suite twice and check the two agree within the bounds",
    )
    args = parser.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds (driver mode) needs --workload")
    if args.seconds is not None and (args.quick or args.aa):
        parser.error("--seconds (driver mode) excludes --quick and --aa")
    return args


def drive(args: argparse.Namespace) -> int:
    """Driver mode.  A traced invocation splits ``--seconds`` evenly."""
    budget = args.seconds / 2 if args.trace else args.seconds
    reports = [measure(args.workload, args.seed, budget)]
    if args.trace:
        reports.append(
            trace_layers(args.workload, args.seed, budget, False, reports[0])
        )
    for report in reports:
        for problem in report["problems"]:
            print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps(reports))
    print(driver_line(reports, "per_layer" if args.trace else "end_to_end"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds is not None:
        return drive(args)

    declared = metrics.declared()
    names = [args.workload] if args.workload else list(declared.workloads)
    seconds = declared.run_seconds

    def suite() -> dict[str, dict[str, Any]]:
        reports = {
            name: measure(name, args.seed, seconds, args.quick) for name in names
        }
        for report in reports.values():
            print_measured(report)
        return reports

    result: dict[str, Any] = {
        "mode": "quick" if args.quick else "full",
        "seconds_per_workload": seconds,
        "workloads": suite(),
    }
    ok = all(healthy(report) for report in result["workloads"].values())
    if args.aa:
        result["workloads_b"] = suite()
        ok = ok and all(healthy(report) for report in result["workloads_b"].values())
        ok = compare_aa(result["workloads"], result["workloads_b"]) and ok
    if args.trace:
        result["traced"] = {
            name: trace_layers(
                name, args.seed, seconds / 2, args.quick, result["workloads"][name]
            )
            for name in names
        }
        for report in result["traced"].values():
            print_per_layer(report)
            ok = ok and healthy(report)
    print()
    print(json.dumps(result))
    return 0 if ok else 1


def cli() -> int:
    try:
        return main()
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli())
