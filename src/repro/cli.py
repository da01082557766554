"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro classify RRX ARRX RXRYRY
    python -m repro solve RRX --triples "R,0,1;R,1,2;R,1,3;R,2,3;X,3,4"
    python -m repro batch RRX --facts db1.txt db2.txt db3.txt --workers 4
    python -m repro serve --instance orders=db1.txt --workload reqs.txt
    python -m repro serve --transport process --instance orders=db1.txt ...
    python -m repro serve --journal sqlite:state.db --workload reqs.txt
    python -m repro serve --journal "replicated:sqlite:a.db;sqlite:b.db" ...
    python -m repro bench-serve --shards 4 --requests 240
    python -m repro bench-serve --cpu-bound --shards 4
    python -m repro scenarios --cells "paper:batch,gadget:*" --seed 7
    python -m repro scenarios --chaos --out BENCH_scenarios.json
    python -m repro answers RR --triples "R,0,1;R,1,2;R,2,3"
    python -m repro atlas
    python -m repro report --trials 10

Triples are ``relation,key,value`` separated by ``;`` (or one per line in
a file passed via ``--facts``).  Numeric constants are parsed as ints so
CLI inputs match the Python examples.

``solve`` and ``batch`` route through one :class:`CertaintyEngine`: the
query is compiled once and every instance reuses the cached plan
(``batch`` additionally fans out over ``--workers`` processes).

``serve`` runs a request workload through the sharded async serving
layer (:mod:`repro.serving`): named instances become shard residents,
``solve``/``delta`` lines are admitted concurrently, and per-shard
warm/cold statistics are reported at the end.  With ``--journal
sqlite:PATH`` residents are durable: a later ``serve`` on the same path
restores them from the log, no ``--instance`` flags needed.  With
``--journal replicated:PRIMARY;FOLLOWER,...`` follower replicas tail
the primary's op log and the most-caught-up one is promoted when the
primary fails (provoke it with ``--journal-chaos``).
``bench-serve`` runs the mixed-workload benchmark comparing shard-warm
serving against per-call solves.  See ``docs/serving.md``.

``scenarios`` runs the differential scenario matrix: seeded instance
families crossed with execution modes, every answered request re-decided
by the independent reference oracle.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.classification.classifier import classify
from repro.db.instance import DatabaseInstance
from repro.engine import CertaintyEngine
from repro.experiments.classification_table import classification_table
from repro.experiments.harness import Table
from repro.experiments.reductions_report import full_report
from repro.solvers.answers import certain_head_answers, certain_tail_answers


def _parse_constant(text: str) -> Hashable:
    text = text.strip()
    if text.lstrip("-").isdigit():
        return int(text)
    return text


def parse_triples(text: str) -> List[Tuple[str, Hashable, Hashable]]:
    """Parse ``"R,0,1;R,1,2"`` into fact triples."""
    triples = []
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(
                "expected 'relation,key,value', got {!r}".format(chunk)
            )
        triples.append((parts[0], _parse_constant(parts[1]), _parse_constant(parts[2])))
    return triples


def _load_instance(args: argparse.Namespace) -> DatabaseInstance:
    text = ""
    if getattr(args, "facts", None):
        with open(args.facts) as handle:
            text = handle.read()
    elif getattr(args, "triples", None):
        text = args.triples
    else:
        raise SystemExit("provide --triples or --facts")
    return DatabaseInstance.from_triples(parse_triples(text))


def _cmd_classify(args: argparse.Namespace) -> int:
    table = Table(["query", "C1", "C2", "C3", "complexity"])
    for query in args.queries:
        result = classify(query)
        table.add_row(
            [
                query,
                "+" if result.c1 else "-",
                "+" if result.c2 else "-",
                "+" if result.c3 else "-",
                result.complexity,
            ]
        )
    print(table.render())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    db = _load_instance(args)
    engine = CertaintyEngine()
    result = engine.solve(db, args.query, method=args.method)
    print(result)
    if args.verbose:
        print("  details:", result.details)
        if result.falsifying_repair is not None:
            print("  falsifying repair:", result.falsifying_repair)
    return 0 if result.answer else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    instances = []
    for path in args.facts:
        with open(path) as handle:
            instances.append(
                (path, DatabaseInstance.from_triples(parse_triples(handle.read())))
            )
    engine = CertaintyEngine()
    labels = [
        (query, path, db)
        for query in args.queries
        for path, db in instances
    ]
    pairs = [(db, query) for query, _, db in labels]
    results = engine.solve_batch(
        pairs, method=args.method, workers=args.workers
    )
    table = Table(["query", "instance", "facts", "answer", "method"])
    for (query, path, db), result in zip(labels, results):
        table.add_row(
            [
                query,
                path,
                len(db),
                "certain" if result.answer else "not certain",
                result.method,
            ]
        )
    print(table.render())
    if args.stats:
        print(engine.stats)
    return 0 if all(r.answer for r in results) else 1


def _parse_delta_edits(text: str):
    """Parse ``"+R,0,1;-R,1,2"`` into a :class:`repro.db.delta.Delta`."""
    from repro.db.delta import Delta

    inserts, removes = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk[0] not in "+-" or len(chunk) < 2:
            raise ValueError(
                "delta edit must be +relation,key,value or "
                "-relation,key,value, got {!r}".format(chunk)
            )
        triple = parse_triples(chunk[1:])[0]
        (inserts if chunk[0] == "+" else removes).append(triple)
    return Delta.removing(*removes).then_inserting(*inserts)


def parse_workload(lines) -> List[Tuple[str, str, str, Optional[str]]]:
    """Parse serve-workload lines into ``(op, name, query, edits)`` tuples.

    Two request forms (blank lines and ``#`` comments are skipped)::

        solve NAME QUERY
        delta NAME QUERY +R,0,1;-R,1,2
    """
    requests = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "solve" and len(parts) == 3:
            requests.append(("solve", parts[1], parts[2], None))
        elif parts[0] == "delta" and len(parts) == 4:
            requests.append(("delta", parts[1], parts[2], parts[3]))
        else:
            raise SystemExit(
                "workload line {}: expected 'solve NAME QUERY' or "
                "'delta NAME QUERY EDITS', got {!r}".format(lineno, line)
            )
    return requests


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import AsyncCertaintyServer

    instances = {}
    for spec in args.instance:
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(
                "--instance expects NAME=FILE, got {!r}".format(spec)
            )
        with open(path) as handle:
            instances[name] = DatabaseInstance.from_triples(
                parse_triples(handle.read())
            )
    if args.workload:
        with open(args.workload) as handle:
            requests = parse_workload(handle)
    else:
        requests = parse_workload(sys.stdin)

    async def _run():
        async with AsyncCertaintyServer(
            num_shards=args.shards,
            max_batch=args.max_batch,
            transport=args.transport,
            journal_store=args.journal,
            queue_limit=args.queue_limit,
            max_in_flight=args.max_in_flight,
            faults=args.chaos,
            journal_faults=args.journal_chaos,
        ) as server:
            for name, db in sorted(instances.items()):
                await server.register(name, db)

            async def one(op, name, query, edits):
                if op == "delta":
                    return await server.solve_delta(
                        name, _parse_delta_edits(edits), query,
                        timeout=args.timeout,
                    )
                return await server.solve(name, query, timeout=args.timeout)

            # One failing request (unknown name, bad edit string) must
            # not abort its siblings: collect exceptions per row.
            results = await asyncio.gather(
                *(one(*request) for request in requests),
                return_exceptions=True,
            )
            # Read stats before the server closes: process transports
            # report queue depth and liveness of the running children.
            return results, server.stats()

    results, stats = asyncio.run(_run())
    failures = 0
    table = Table(["#", "op", "instance", "query", "answer", "method"])
    for index, ((op, name, query, _edits), result) in enumerate(
        zip(requests, results)
    ):
        if isinstance(result, BaseException):
            failures += 1
            answer, method = "error", "{}: {}".format(
                type(result).__name__, result
            )
        else:
            answer = "certain" if result.answer else "not certain"
            method = result.method
        table.add_row([index, op, name, query, answer, method])
    print(table.render())
    if args.stats:
        admission = stats["admission"]
        print(
            "admission: submitted={} completed={} failed={} "
            "overload_shed={} deadline_shed={}".format(
                admission["submitted"],
                admission["completed"],
                admission["failed"],
                admission.get("overload_shed", 0),
                admission.get("deadline_shed", 0),
            )
        )
        faults = stats.get("faults", {})
        if faults.get("armed"):
            print(
                "faults: seed={} injected={} rules={}".format(
                    faults["seed"],
                    faults["injected"] or "{}",
                    "; ".join(faults["rules"]) or "(none)",
                )
            )
        journal_faults = stats.get("journal_faults", {})
        if journal_faults.get("armed"):
            print(
                "journal-faults: seed={} injected={} rules={}".format(
                    journal_faults["seed"],
                    journal_faults["injected"] or "{}",
                    "; ".join(journal_faults["rules"]) or "(none)",
                )
            )
        journal = stats["journal"]
        print(
            "journal: store={} residents={} ops={} log_rows={} "
            "compactions={} truncated_ops={}".format(
                journal["store"],
                journal.get("residents", 0),
                journal.get("ops", 0),
                journal.get("log_rows", 0),
                journal.get("compactions", 0),
                journal.get("truncated_ops", 0),
            )
        )
        replication = journal.get("replication")
        if replication:
            print(
                "replication: primary={} failovers={} followers_lost={} "
                "ship_every={} replicas=[{}]".format(
                    replication["primary"],
                    replication["failovers"],
                    replication["followers_lost"],
                    replication["ship_every"],
                    ", ".join(
                        "{}:lag={}".format(r["kind"], r["lag"])
                        for r in replication["replicas"]
                    ),
                )
            )
        for shard in stats["shards"]:
            if not shard["requests"]:
                continue
            print(
                "shard {}: requests={} batches={} mean_batch={:.1f} "
                "coalesced={} warm={} cold={} deadline_shed={} "
                "overload_shed={}".format(
                    shard["shard"],
                    shard["requests"],
                    shard["batches"],
                    shard["mean_batch_size"],
                    shard["coalesced"],
                    shard["warm_hits"],
                    shard["cold_solves"],
                    shard.get("deadline_shed", 0),
                    shard.get("overload_shed", 0),
                )
            )
            health = shard["transport"]
            print(
                "  transport={} alive={} restarts={} snapshot_bytes={} "
                "snapshot_shm={} deltas_forwarded={} queue_depth={} "
                "breaker={} consecutive_failures={} degraded_served={}".format(
                    health["transport"],
                    health["alive"],
                    health["restarts"],
                    health["snapshot_bytes"],
                    health.get("snapshot_shm", 0),
                    health["deltas_forwarded"],
                    health["queue_depth"],
                    health.get("breaker", "closed"),
                    health.get("consecutive_failures", 0),
                    health.get("degraded_served", 0),
                )
            )
    if failures:
        return 2
    return 0 if all(r.answer for r in results) else 1


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serving.bench import (
        run_serving_benchmark,
        run_transport_benchmark,
    )

    if args.cpu_bound:
        report = run_transport_benchmark(
            num_shards=args.shards,
            # The CPU-bound race needs large residents (the per-request
            # kernel must dominate IPC), so its defaults differ from the
            # shard-warm workload's; explicit flags still win.
            repetitions=args.repetitions or 3000,
            n_requests=args.requests or 64,
        )
        table = Table(["transport", "seconds", "requests/s"])
        for transport in sorted(report["transports"]):
            row = report["transports"][transport]
            table.add_row(
                [
                    transport,
                    "{:.4f}".format(row["seconds"]),
                    "{:.0f}".format(row["rps"]),
                ]
            )
        print(table.render())
        print(
            "process/thread speedup: {:.2f}x over {} CPU-bound requests "
            "on {} shards (answers agree: {})".format(
                report["speedup"],
                report["requests"],
                report["num_shards"],
                report["agrees"],
            )
        )
        return 0 if report["agrees"] else 1

    report = run_serving_benchmark(
        num_shards=args.shards,
        num_instances=args.instances,
        repetitions=args.repetitions or 40,
        n_requests=args.requests or 240,
        max_batch=args.max_batch,
        transport=args.transport,
        chaos=args.chaos,
    )
    table = Table(["path", "seconds", "requests/s"])
    table.add_row(
        ["per-call solve_batch", "{:.4f}".format(report["naive_seconds"]),
         "{:.0f}".format(report["naive_rps"])]
    )
    table.add_row(
        ["sharded async serving", "{:.4f}".format(report["serving_seconds"]),
         "{:.0f}".format(report["serving_rps"])]
    )
    print(table.render())
    print(
        "speedup: {:.1f}x over {} requests on {} shards "
        "(answers agree: {}, warm hits: {})".format(
            report["speedup"],
            report["requests"],
            report["num_shards"],
            report["agrees"],
            report["warm_hits"],
        )
    )
    if args.chaos:
        outcomes = report["outcomes"]
        faults = report["server_stats"].get("faults", {})
        print(
            "chaos: answered={} deadline_exceeded={} overloaded={} "
            "unavailable={} other_error={} injected={}".format(
                outcomes["answered"],
                outcomes["deadline_exceeded"],
                outcomes["overloaded"],
                outcomes["unavailable"],
                outcomes["other_error"],
                faults.get("injected") or "{}",
            )
        )
    return 0 if report["agrees"] else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        FAMILIES,
        MODES,
        default_chaos_spec,
        default_matrix,
        parse_cells,
        run_matrix,
        write_report,
    )

    if args.list:
        table = Table(["axis", "name", "description"])
        for name in FAMILIES:
            table.add_row(["family", name, FAMILIES[name].description])
        for name in MODES:
            table.add_row(["mode", name, MODES[name].description])
        print(table.render())
        return 0

    if args.cells:
        cells = parse_cells(args.cells)
    else:
        spec = "{}:{}".format(
            args.families or "*", args.modes or "*"
        )
        cells = (
            default_matrix()
            if spec == "*:*"
            else parse_cells(
                ",".join(
                    "{}:{}".format(f.strip(), m.strip())
                    for f in (args.families or "*").split(",")
                    for m in (args.modes or "*").split(",")
                )
            )
        )
    chaos = args.chaos
    if chaos == "":  # bare --chaos: the default seeded schedule
        chaos = default_chaos_spec(args.seed)

    table = Table(
        ["cell", "req", "answered", "verified", "mism", "errors",
         "final", "routes", "wall"]
    )

    def progress(record):
        table.add_row(
            [
                record.cell,
                record.requests,
                record.answered,
                record.verified,
                len(record.mismatches),
                sum(record.errors.values()),
                {True: "ok", False: "DIVERGED", None: "-"}[record.final_ok],
                ",".join(
                    "{}:{}".format(k, v)
                    for k, v in record.route_mix.items()
                ),
                "{:.2f}s".format(record.wall_seconds),
            ]
        )

    records = run_matrix(
        cells,
        seed=args.seed,
        scale=args.scale,
        chaos=chaos,
        progress=progress,
    )
    print(table.render())
    mismatched = sum(len(r.mismatches) for r in records)
    diverged = sum(1 for r in records if r.final_ok is False)
    print(
        "{} cells, {} answered, {} verified, {} mismatches, "
        "{} replay divergences".format(
            len(records),
            sum(r.answered for r in records),
            sum(r.verified for r in records),
            mismatched,
            diverged,
        )
    )
    if args.out:
        write_report(
            args.out, records, include_timing=not args.canonical
        )
        print("wrote {}".format(args.out))
    return 0 if not mismatched and not diverged else 1


def _cmd_answers(args: argparse.Namespace) -> int:
    db = _load_instance(args)
    if args.position == "head":
        answers = certain_head_answers(db, args.query)
    else:
        answers = certain_tail_answers(db, args.query)
    print("certain {} answers of {}(x): {}".format(
        args.position, args.query,
        sorted(answers, key=str) if answers else "(none)",
    ))
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    print(classification_table(markdown=args.markdown))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    table = Table(["experiment", "query", "trials", "agree"])
    for row in full_report(trials=args.trials, seed=args.seed):
        table.add_row(
            [row["experiment"], row["query"], row["trials"], row["agree"]]
        )
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Consistent query answering for primary keys on path queries "
        "(PODS 2021 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify_parser = commands.add_parser(
        "classify", help="classify path queries (Theorem 3)"
    )
    classify_parser.add_argument("queries", nargs="+")
    classify_parser.set_defaults(handler=_cmd_classify)

    solve_parser = commands.add_parser(
        "solve", help="decide CERTAINTY(q) on an instance"
    )
    solve_parser.add_argument("query")
    solve_parser.add_argument("--triples", help="facts as 'R,0,1;R,1,2;...'")
    solve_parser.add_argument("--facts", help="file with one triple per line")
    solve_parser.add_argument(
        "--method",
        default="auto",
        choices=["auto", "fo", "nl", "fixpoint", "sat", "brute_force"],
    )
    solve_parser.add_argument("-v", "--verbose", action="store_true")
    solve_parser.set_defaults(handler=_cmd_solve)

    batch_parser = commands.add_parser(
        "batch",
        help="decide CERTAINTY(q) for queries x instances through one engine",
    )
    batch_parser.add_argument("queries", nargs="+")
    batch_parser.add_argument(
        "--facts",
        nargs="+",
        required=True,
        help="files with one 'relation,key,value' triple per line",
    )
    batch_parser.add_argument(
        "--method",
        default="auto",
        choices=["auto", "fo", "nl", "fixpoint", "sat", "brute_force"],
    )
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the batch out over N processes",
    )
    batch_parser.add_argument(
        "--stats", action="store_true", help="print engine statistics"
    )
    batch_parser.set_defaults(handler=_cmd_batch)

    serve_parser = commands.add_parser(
        "serve",
        help="run a request workload through the sharded async serving layer",
    )
    serve_parser.add_argument(
        "--instance",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="register FILE (one triple per line) as the resident NAME",
    )
    serve_parser.add_argument(
        "--workload",
        help="file of 'solve NAME QUERY' / 'delta NAME QUERY EDITS' lines "
        "(default: stdin)",
    )
    serve_parser.add_argument("--shards", type=int, default=4)
    serve_parser.add_argument("--max-batch", type=int, default=32)
    serve_parser.add_argument(
        "--transport",
        default="thread",
        choices=["thread", "process"],
        help="run shards as threads (shared memory) or as one "
        "subprocess per shard (true CPU parallelism)",
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="SPEC",
        help="durable journal store: 'memory' (lost on exit), "
        "'sqlite:PATH' (residents survive a restart; a reopened server "
        "needs no --instance re-registration), 'kv:memory' / 'kv:DIR' "
        "(journal over the minimal key-value interface), or "
        "'replicated:PRIMARY;FOLLOWER[,FOLLOWER...]' (each side any of "
        "the above: read replicas tail the primary's op log and the "
        "most-caught-up one is promoted when the primary fails)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; expired requests fail fast with "
        "DeadlineExceeded instead of burning shard work",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="bound each shard's queue; over-limit submits fail fast "
        "with ServerOverloaded",
    )
    serve_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        metavar="N",
        help="server-wide cap on admitted-but-unresolved requests",
    )
    serve_parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm the deterministic fault plan, e.g. "
        "'crash:every=5;delay:seconds=0.01,p=0.2;seed=7' "
        "(kinds: crash, drop, delay, dup)",
    )
    serve_parser.add_argument(
        "--journal-chaos",
        default=None,
        metavar="SPEC",
        help="arm a separate fault plan against the replicated "
        "journal's primary writes (requires --journal replicated:...), "
        "e.g. 'write_error:every=5,times=2;seed=0' "
        "(kinds: write_error, torn_write, stall)",
    )
    serve_parser.add_argument(
        "--stats", action="store_true", help="print admission and shard stats"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    bench_serve_parser = commands.add_parser(
        "bench-serve",
        help="benchmark shard-warm async serving against per-call solves",
    )
    bench_serve_parser.add_argument("--shards", type=int, default=4)
    bench_serve_parser.add_argument("--instances", type=int, default=6)
    bench_serve_parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="resident size (default: 40 shard-warm, 3000 --cpu-bound)",
    )
    bench_serve_parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="stream length (default: 240 shard-warm, 64 --cpu-bound)",
    )
    bench_serve_parser.add_argument("--max-batch", type=int, default=32)
    bench_serve_parser.add_argument(
        "--transport",
        default="thread",
        choices=["thread", "process"],
        help="shard transport for the serving path",
    )
    bench_serve_parser.add_argument(
        "--cpu-bound",
        action="store_true",
        help="compare thread vs process transports on a CPU-bound "
        "forced-fixpoint stream instead of the shard-warm workload",
    )
    bench_serve_parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm the fault plan on the serving side and report "
        "per-request outcome buckets (shard-warm workload only)",
    )
    bench_serve_parser.set_defaults(handler=_cmd_bench_serve)

    scenarios_parser = commands.add_parser(
        "scenarios",
        help="run the differentially-verified scenario matrix "
        "(families x modes)",
    )
    scenarios_parser.add_argument(
        "--cells",
        default=None,
        metavar="SPEC",
        help="comma list of family:mode cells; '*' wildcards either side "
        "(default: the full matrix)",
    )
    scenarios_parser.add_argument(
        "--families",
        default=None,
        metavar="LIST",
        help="comma list of families to run (crossed with --modes)",
    )
    scenarios_parser.add_argument(
        "--modes",
        default=None,
        metavar="LIST",
        help="comma list of modes to run (crossed with --families)",
    )
    scenarios_parser.add_argument("--seed", type=int, default=0)
    scenarios_parser.add_argument(
        "--scale", default="quick", choices=["quick", "full"]
    )
    scenarios_parser.add_argument(
        "--chaos",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="arm the fault plan on serving cells; bare --chaos uses the "
        "default seeded schedule",
    )
    scenarios_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the BENCH_scenarios.json payload to FILE",
    )
    scenarios_parser.add_argument(
        "--canonical",
        action="store_true",
        help="strip wall times and volatile counters from --out so the "
        "payload is byte-identical for a fixed seed",
    )
    scenarios_parser.add_argument(
        "--list",
        action="store_true",
        help="list the registered families and modes, run nothing",
    )
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    answers_parser = commands.add_parser(
        "answers", help="certain answers of the unary query q(x)"
    )
    answers_parser.add_argument("query")
    answers_parser.add_argument("--triples")
    answers_parser.add_argument("--facts")
    answers_parser.add_argument(
        "--position", default="head", choices=["head", "tail"]
    )
    answers_parser.set_defaults(handler=_cmd_answers)

    atlas_parser = commands.add_parser(
        "atlas", help="the paper-query classification table"
    )
    atlas_parser.add_argument("--markdown", action="store_true")
    atlas_parser.set_defaults(handler=_cmd_atlas)

    report_parser = commands.add_parser(
        "report", help="reduction-agreement report (E8/E9/E10)"
    )
    report_parser.add_argument("--trials", type=int, default=10)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
