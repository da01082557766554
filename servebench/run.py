"""The serving benchmark: end-to-end and per-layer metrics of the server.

Usage, from the root of the repository::

    python3 servebench/run.py --workload thread --seed 1 --seconds 16 --trace 0

``--workload`` is ``thread``, ``thread-small`` (the same at half the
input sizes) or ``process`` (the process transport), and ``--tiny``
swaps in the self-check inputs.  With ``--trace 0`` the run
measures the end-to-end metrics.  With ``--trace 1`` it runs the workload
twice on the same seed, each time for half of ``--seconds``: first as
shipped, then with the timing wrappers of ``tracing.py`` installed.  It
prints the per-layer metrics of the traced pass and, per end-to-end
metric, how far the traced pass moved it (the tracing overhead).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every answer matched the oracle, 1 on a mismatch, and 2 when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Children of the process transport are spawned and re-import this file,
# so the paths must be set at import time, before anything imports repro.
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

#: Workload -> (shard transport, input size).  ``process`` runs but is not
#: in BENCHMARK.json: its spreads exceed the bounds (see README.md).
WORKLOADS = {
    "thread": ("thread", "full"),
    "thread-small": ("thread", "small"),
    "process": ("process", "full"),
}

#: Per-layer metrics: name -> unit.  :func:`layer_metrics` says where each
#: is measured.
LAYER_UNITS = {
    "server.lone_read_p90_ms": "ms",
    "server.lone_read_samples": "count",
    "server.delta_p90_ms": "ms",
    "server.delta_samples": "count",
    "server.read_after_write_p90_ms": "ms",
    "server.read_after_write_samples": "count",
    "shard.queue_wait_p50_ms": "ms",
    "shard.queue_wait_delta_p50_ms": "ms",
    "shard.batch_size_mean": "requests",
    "shard.coalesced_share": "ratio",
    "transport.overhead_p50_ms": "ms",
    "transport.register_overhead_p50_ms": "ms",
    "transport.snapshot_bytes": "bytes",
    "journal.append_p50_ms": "ms",
    "journal.compactions": "count",
    "journal.replay_s": "s",
    "engine.compile_ms": "ms",
    "engine.warm_read_p50_ms": "ms",
    "engine.solve_delta_p50_ms": "ms",
    "engine.warm_share": "ratio",
    "engine.full_resolves": "count",
    "db.commit_p50_ms": "ms",
    "db.commits_per_delta": "count",
    "db.compact_build_p50_ms": "ms",
    "solvers.fixpoint_compute_p50_ms": "ms",
    "solvers.fixpoint_apply_delta_p50_ms": "ms",
    "solvers.sat_solve_p50_ms": "ms",
    "solvers.sat_solves_per_read": "count",
    "solvers.state_cache_hit_share": "ratio",
    "solvers.route_fo_ms": "ms",
    "solvers.route_fixpoint_ms": "ms",
    "solvers.route_sat_ms": "ms",
    "datalog.nl_p50_ms": "ms",
}


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def _p90(values, scale=1.0):
    if len(values) < 2:
        return _median(values, scale)
    return statistics.quantiles(values, n=10)[-1] * scale


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(run, recorder, setup_repeats):
    """Per-layer values of a traced run, and the samples behind each."""
    rec = recorder.get
    lone = run.samples["lone"]
    fanin, first, update = (run.counts[p] for p in ("fanin", "first", "update"))
    commits = rec("update", "db.commit")
    sat_reads = rec("lone", "sat.solve")
    values = {
        "server.lone_read_p90_ms": (_p90(lone, 1e3), len(lone)),
        "server.lone_read_samples": (len(lone), len(lone)),
        "server.delta_p90_ms": (_p90(run.samples["delta"], 1e3),
                                len(run.samples["delta"])),
        "server.delta_samples": (len(run.samples["delta"]),) * 2,
        "server.read_after_write_p90_ms": (
            _p90(run.samples["read_after_write"], 1e3),
            len(run.samples["read_after_write"]),
        ),
        "server.read_after_write_samples": (
            len(run.samples["read_after_write"]),
        ) * 2,
        "shard.batch_size_mean": (
            _ratio(fanin["batched"], fanin["batches"]), fanin["batches"]
        ),
        "shard.coalesced_share": (
            _ratio(fanin["coalesced"], fanin["requests"]), fanin["requests"]
        ),
        "transport.snapshot_bytes": (
            _ratio(first["snapshot_bytes"], first["registrations"]),
            first["registrations"],
        ),
        "journal.compactions": (update["compactions"], update["deltas"]),
        "engine.compile_ms": (
            sum(rec("setup", "engine.compile")) * 1e3 / setup_repeats,
            len(rec("setup", "engine.compile")),
        ),
        "engine.warm_share": (
            _ratio(update["incremental_hits"], update["delta_solves"]),
            update["delta_solves"],
        ),
        "engine.full_resolves": (update["full_resolves"], update["delta_solves"]),
        "db.commits_per_delta": (_ratio(len(commits), update["deltas"]),
                                 update["deltas"]),
        "solvers.sat_solves_per_read": (_ratio(len(sat_reads), len(lone)),
                                        len(lone)),
        "solvers.state_cache_hit_share": (
            _ratio(update["cache_hits"],
                   update["cache_hits"] + update["cache_misses"]),
            update["cache_hits"] + update["cache_misses"],
        ),
    }
    timed = {
        "shard.queue_wait_p50_ms": ("lone", "shard.queue_wait.solve", 1e3),
        "shard.queue_wait_delta_p50_ms": ("update", "shard.queue_wait.delta", 1e3),
        "transport.overhead_p50_ms": ("lone", "transport.overhead.read", 1e3),
        "transport.register_overhead_p50_ms": (
            "first", "transport.overhead.register", 1e3),
        "journal.append_p50_ms": ("update", "journal.append", 1e3),
        "journal.replay_s": ("restart", "journal.open", 1.0),
        "engine.warm_read_p50_ms": ("lone", "engine.solve_delta.read", 1e3),
        "engine.solve_delta_p50_ms": ("update", "engine.solve_delta.write", 1e3),
        "db.commit_p50_ms": ("update", "db.commit", 1e3),
        "db.compact_build_p50_ms": ("cold", "db.compact_build", 1e3),
        "solvers.fixpoint_compute_p50_ms": ("update", "fixpoint.compute", 1e3),
        "solvers.fixpoint_apply_delta_p50_ms": (
            "update", "fixpoint.apply_delta", 1e3),
        "solvers.sat_solve_p50_ms": ("lone", "sat.solve", 1e3),
        "solvers.route_fo_ms": ("cold", "route.fo", 1e3),
        "solvers.route_fixpoint_ms": ("cold", "route.fixpoint", 1e3),
        "solvers.route_sat_ms": ("cold", "route.sat", 1e3),
        "datalog.nl_p50_ms": ("cold", "datalog.nl", 1e3),
    }
    for name, (phase, key, scale) in timed.items():
        samples = rec(phase, key)
        values[name] = (_median(samples, scale), len(samples))
    return values


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-check inputs: every phase in a few seconds",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import the program from ``src/`` of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program to measure: {} is missing".format(
            os.path.join(SRC, "repro")), file=sys.stderr)
        sys.exit(2)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("repro was imported from {}, not {}".format(
            repro.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def _stop_resource_tracker():
    """Stop the helper process multiprocessing starts for shared memory
    segments, and wait for it (it would otherwise outlive the run).
    multiprocessing has no public call for this."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import tracing
    import workload

    transport, size = WORKLOADS[args.workload]
    if args.tiny:
        size = "tiny"

    def make_run(seconds, traced):
        recorder = factory = None
        if traced:
            recorder = tracing.Recorder()
            tracing.install(recorder)
            if transport == "process":
                factory = tracing.traced_engine
        return workload.Run(
            transport, args.seed, seconds, size=size,
            recorder=recorder, engine_factory=factory, workdir=ROOT,
        )

    try:
        if not args.trace:
            run = make_run(args.seconds, traced=False)
            run.run()
            runs = [run]
            metrics = {
                name: {"value": run.metrics[name], "unit": unit}
                for name, unit in workload.END_TO_END.items()
            }
            _print_end_to_end(run)
        else:
            plain = make_run(args.seconds / 2, traced=False)
            plain.run()
            traced = make_run(args.seconds / 2, traced=True)
            traced.run()
            runs = [plain, traced]
            layers = layer_metrics(traced, traced.recorder,
                                   workload.SETUP_REPEATS)
            metrics = {
                name: {"value": layers[name][0], "unit": unit}
                for name, unit in LAYER_UNITS.items()
            }
            _print_layers(layers)
            _print_overhead(plain, traced)
    finally:
        _stop_resource_tracker()
    mismatches = [m for run in runs for m in run.mismatches]
    for mismatch in mismatches:
        print("MISMATCH " + mismatch, file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 1 if mismatches else 0


def _print_end_to_end(run) -> None:
    import workload

    counts = {
        "lone_read_p50_ms": "lone", "first_answer_p50_ms": "first",
        "delta_p50_ms": "delta",
        "read_after_write_p50_ms": "read_after_write",
        "restart_s": "restart", "cold_fo_p50_ms": "cold_fo",
        "cold_nl_p50_ms": "cold_nl", "cold_ptime_p50_ms": "cold_ptime",
        "cold_conp_p50_ms": "cold_conp",
    }
    print("{:<28} {:>12} {:<5} {:>7}".format("metric", "value", "unit", "n"))
    for name, unit in workload.END_TO_END.items():
        n = len(run.samples[counts[name]]) if name in counts else ""
        print("{:<28} {:>12.4f} {:<5} {:>7}".format(
            name, run.metrics[name], unit, n))
    print("operations attempted {} failed {}; oracle time {:.1f} s".format(
        run.attempted, run.failed, run.oracle.seconds))


def _print_layers(layers) -> None:
    print("{:<38} {:>12} {:<9} {:>7}".format("layer metric", "value", "unit",
                                             "n"))
    for name, unit in LAYER_UNITS.items():
        value, count = layers[name]
        print("{:<38} {:>12.4f} {:<9} {:>7}".format(name, value, unit, count))


def _print_overhead(plain, traced) -> None:
    import workload

    print("{:<28} {:>12} {:>12} {:>9}".format(
        "tracing overhead", "untraced", "traced", "change"))
    for name, unit in workload.END_TO_END.items():
        a, b = plain.metrics[name], traced.metrics[name]
        print("{:<28} {:>12.4f} {:>12.4f} {:>8.1f}%".format(
            name + " (" + unit + ")", a, b, (b - a) / a * 100 if a else 0.0))


if __name__ == "__main__":
    sys.exit(main())
