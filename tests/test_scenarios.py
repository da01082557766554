"""The scenario matrix: axes, oracle, determinism, and the smoke cells.

Four layers of guarantees:

* **generators** -- the coNP hardness gadget's provable ground truth and
  the firehose stream's no-no-op/liveness invariants, cross-checked by
  brute force;
* **oracle** -- the differential verifier flags a seeded wrong answer
  (if it cannot catch a planted bug, no cell is evidence of anything),
  and above the repair limit it answers without the engine's SAT solver;
* **cells** -- the tier-1 smoke cells (``-m scenarios_smoke``) and a
  chaos-armed serving cell verify every answered request;
* **determinism** -- the same seed reproduces workloads bit-for-bit and
  the canonical report byte-for-byte, including a serving cell.

The full 20-cell matrix (every family x every mode, including
``serve-process``) runs in the slow lane.
"""

import json
import random
import subprocess
import sys

import pytest

from repro.db.repairs import count_repairs
from repro.queries.generalized import GeneralizedPathQuery
from repro.scenarios import (
    FAMILIES,
    MODES,
    SMOKE_CELLS,
    AnsweredRequest,
    Mismatch,
    build_workload,
    default_chaos_spec,
    default_matrix,
    parse_cells,
    reference_answer,
    render_report,
    run_cell,
    run_matrix,
    verify_answers,
)
from repro.solvers.brute_force import certain_answer_brute_force
from repro.solvers.sat import IncrementalSatSolver
from repro.workloads.generators import chain_instance, hardness_gadget_instance


class TestGenerators:
    def test_gadget_ground_truth_matches_brute_force(self):
        import random

        from repro.workloads.generators import hardness_gadget_instance

        for seed in range(3):
            rng = random.Random(seed)
            for branches, straight in [(1, 0), (1, 1), (2, 0), (3, 2)]:
                db = hardness_gadget_instance(rng, branches, straight)
                want = straight >= 1
                assert (
                    certain_answer_brute_force(db, "ARRX").answer is want
                ), (seed, branches, straight)
                assert reference_answer(db, "ARRX") is want

    def test_gadget_rejects_degenerate_queries(self):
        import random

        from repro.workloads.generators import hardness_gadget_instance

        rng = random.Random(0)
        with pytest.raises(ValueError):
            hardness_gadget_instance(rng, 2, 1, query="RX")  # too short
        with pytest.raises(ValueError):
            hardness_gadget_instance(rng, 2, 1, query="RRRX")  # head recurs
        with pytest.raises(ValueError):
            hardness_gadget_instance(rng, 2, 1, query="ARR")  # repeated tail
        with pytest.raises(ValueError):
            hardness_gadget_instance(rng, 2, 3)  # straight > branches

    def test_firehose_stream_edits_never_no_op(self):
        import random

        from repro.workloads.generators import firehose_stream, random_instance

        rng = random.Random(5)
        base = random_instance(rng, 5, 10, ("A", "R", "X"), 0.4)
        deltas = firehose_stream(rng, base, 12, max_edits=3)
        assert deltas
        live = set(base.facts)
        for delta in deltas:
            assert delta.removes or delta.inserts
            for fact in delta.removes:
                assert fact in live  # removes always hit a live fact
            for fact in delta.inserts:
                assert fact not in live  # inserts are always new
            live.difference_update(delta.removes)
            live.update(delta.inserts)

    def test_firehose_stream_is_seed_deterministic(self):
        import random

        from repro.workloads.generators import firehose_stream, random_instance

        def build():
            rng = random.Random(21)
            base = random_instance(rng, 4, 8, ("R", "X"), 0.5)
            return base, firehose_stream(rng, base, 6)

        base_a, stream_a = build()
        base_b, stream_b = build()
        assert base_a == base_b
        assert stream_a == stream_b  # Delta is a frozen value type


class TestOracle:
    def test_seeded_wrong_answer_is_flagged(self):
        """The self-test: plant a bug, the verifier must catch it."""
        workload = build_workload("paper", seed=0)
        name = workload.names[0]
        query = workload.queries[name][0]
        db = workload.instances[name]
        truth = reference_answer(db, query)
        good = AnsweredRequest(name, query, truth, "nl", db)
        bad = AnsweredRequest(name, query, not truth, "nl", db)
        assert verify_answers([good]) == []
        assert verify_answers([good, bad]) == [
            Mismatch(name=name, query=query, got=not truth, want=truth)
        ]

    def test_mismatch_survives_memoized_duplicates(self):
        """A read burst repeats (instance, query); the memo must not
        swallow a wrong answer among correct duplicates."""
        workload = build_workload("random", seed=3)
        name = workload.names[0]
        db = workload.instances[name]
        truth = reference_answer(db, "RRX")
        answered = [AnsweredRequest(name, "RRX", truth, "nl", db)] * 3
        answered.insert(2, AnsweredRequest(name, "RRX", not truth, "nl", db))
        mismatches = verify_answers(answered)
        assert len(mismatches) == 1
        assert mismatches[0].want is truth


def _large_gadget():
    return hardness_gadget_instance(random.Random(27), 11, 0), "ARRX"


def _large_certain_chain():
    return chain_instance("ARRX", repetitions=18, conflict_every=7), "ARRX"


def _large_generalized():
    db = hardness_gadget_instance(random.Random(27), 11, 1)
    root = next(f.key for f in sorted(db.facts) if f.relation == "A")
    return db, GeneralizedPathQuery("ARRX", {0: root})


class TestOracleIndependence:
    """Above the repair limit the oracle solves the shared encoding with
    its own DPLL: with the engine's CDCL solver made to fail, it still
    answers each coNP shape correctly."""

    @pytest.fixture(autouse=True)
    def failing_cdcl(self, monkeypatch):
        def refuse(self, assumptions=()):
            raise AssertionError("the oracle ran the engine's SAT solver")

        monkeypatch.setattr(IncrementalSatSolver, "solve", refuse)

    @pytest.mark.parametrize(
        "build,want",
        [
            (_large_gadget, False),
            (_large_certain_chain, True),
            (_large_generalized, None),
        ],
        ids=["gadget", "certain-chain", "generalized"],
    )
    def test_reference_answer_without_the_engine_solver(self, build, want):
        db, query = build()
        assert count_repairs(db) > 512
        truth = certain_answer_brute_force(db, query, repair_limit=None)
        if want is not None:
            assert truth.answer is want
        assert reference_answer(db, query) is truth.answer


class TestAxes:
    def test_matrix_is_at_least_four_by_four(self):
        assert len(FAMILIES) >= 4
        assert len(MODES) >= 4
        cells = default_matrix()
        assert len(cells) >= 16
        assert len(set(cells)) == len(cells)

    def test_workload_builders_are_seed_deterministic(self):
        for family in FAMILIES:
            assert build_workload(family, seed=9) == build_workload(
                family, seed=9
            ), family

    def test_workloads_have_queries_and_deltas_per_instance(self):
        for family in FAMILIES:
            workload = build_workload(family, seed=2)
            assert workload.names
            for name in workload.names:
                assert workload.queries[name]
                assert workload.deltas[name]

    def test_parse_cells_wildcards_and_errors(self):
        assert parse_cells("paper:batch") == [("paper", "batch")]
        assert parse_cells("gadget:*") == [
            ("gadget", mode) for mode in sorted(MODES)
        ]
        assert len(parse_cells("*:*")) == len(default_matrix())
        assert parse_cells("paper:batch,paper:batch") == [("paper", "batch")]
        with pytest.raises(ValueError):
            parse_cells("paper")
        with pytest.raises(ValueError):
            parse_cells("nope:batch")
        with pytest.raises(ValueError):
            parse_cells("paper:nope")
        with pytest.raises(ValueError):
            parse_cells("")


@pytest.mark.scenarios_smoke
class TestSmokeCells:
    """The 4-cell smoke run tier-1 CI executes explicitly."""

    @pytest.mark.parametrize("family,mode", SMOKE_CELLS)
    def test_cell_verifies_cleanly(self, family, mode):
        record = run_cell(family, mode, seed=7)
        assert record.answered > 0
        assert record.verified == record.answered
        assert record.mismatches == []
        assert record.errors == {}
        assert record.ok
        if mode.startswith("serve"):
            assert record.final_ok is True
        assert record.route_mix  # at least one engine route exercised


class TestCells:
    def test_gadget_cells_take_the_sat_route(self):
        record = run_cell("gadget", "batch", seed=1)
        assert record.route_mix.get("sat", 0) >= 1
        assert record.mismatches == []

    def test_stream_cells_hit_the_incremental_path(self):
        record = run_cell("firehose", "stream", seed=4)
        assert record.counters["incremental_hits"] > 0
        assert record.mismatches == []

    def test_chaos_serve_thread_cell_survives_and_verifies(self):
        chaos = default_chaos_spec(13)
        record = run_cell("random", "serve-thread", seed=13, chaos=chaos)
        assert record.chaos == chaos
        assert record.verified == record.answered
        assert record.final_ok is True
        injected = record.counters["faults_injected"]
        assert injected.get("crash", 0) >= 1  # the schedule actually fired

    def test_chaos_is_not_armed_on_engine_direct_modes(self):
        record = run_cell("paper", "batch", seed=0, chaos=default_chaos_spec(0))
        assert record.chaos is None
        assert record.mismatches == []

    def test_canonical_report_is_byte_identical_across_runs(self):
        """Satellite: same --seed, same bytes -- including a serving cell."""
        cells = [
            ("paper", "batch"),
            ("gadget", "stream"),
            ("planted", "serve-thread"),
        ]
        first = render_report(run_matrix(cells, seed=11), include_timing=False)
        second = render_report(run_matrix(cells, seed=11), include_timing=False)
        assert first == second
        payload = json.loads(first)
        assert payload["scenarios"]["totals"]["mismatches"] == 0
        assert [b["name"] for b in payload["benchmarks"]] == [
            "scenario[paper:batch]",
            "scenario[gadget:stream]",
            "scenario[planted:serve-thread]",
        ]

    def test_full_report_carries_timing_and_counters(self):
        payload = json.loads(
            render_report([run_cell("paper", "batch", seed=0)])
        )
        cell = payload["scenarios"]["cells"][0]
        assert "wall_seconds" in cell and "counters" in cell
        bench = payload["benchmarks"][0]
        assert bench["stats"]["rounds"] == 1
        assert bench["extra_info"]["notes"].startswith("verified ")


class TestCli:
    def test_scenarios_subcommand_writes_valid_report(self, tmp_path):
        out = tmp_path / "BENCH_scenarios.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "scenarios",
                "--cells", "paper:batch,gadget:batch",
                "--seed", "3", "--out", str(out), "--canonical",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 cells" in proc.stdout
        payload = json.loads(out.read_text())
        assert len(payload["benchmarks"]) == 2
        assert payload["scenarios"]["totals"]["mismatches"] == 0

    def test_scenarios_list_names_both_axes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios", "--list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in list(FAMILIES) + list(MODES):
            assert name in proc.stdout


@pytest.mark.slow
class TestFullMatrix:
    """Every family x every mode, including serve-process, verified."""

    def test_default_matrix_verifies_every_cell(self):
        records = run_matrix(seed=0)
        assert len(records) == len(default_matrix())
        for record in records:
            assert record.answered > 0, record.cell
            assert record.verified == record.answered, record.cell
            assert record.mismatches == [], record.cell
            if record.mode.startswith("serve"):
                assert record.final_ok is True, record.cell

    def test_chaos_matrix_on_serving_modes(self):
        cells = [(f, "serve-thread") for f in FAMILIES]
        records = run_matrix(cells, seed=5, chaos=default_chaos_spec(5))
        for record in records:
            assert record.verified == record.answered, record.cell
            assert record.final_ok is True, record.cell
