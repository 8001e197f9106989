"""The benchmark's own tests: seeded generation, repeatable counts, and
every metric named in BENCHMARK.json emitted.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "steps_ratio",
    "protection_overhead",
    "code_size_ratio",
)
DETERMINISTIC_LAYER = (
    "deps.cd_total",
    "deps.reruns",
    "deps.replayed_events",
    "deps.links_audited",
    "deps.links_unique",
    "deps.link_useful_ratio",
)


def test_same_seed_gives_identical_programs():
    for make in gen.WORKLOADS.values():
        assert make(11) == make(11)
    assert [c.text for c in gen.corpus(11)] != [c.text for c in gen.corpus(12)]


def test_gate_counts_a_changed_verdict_as_failed_and_a_wrong_output_as_error():
    case = gen.chain_audit(5)[0]
    table = {case.key: {"P0": "pass", "P3": "pass", "Pz": "IRError"}}
    job = run.Job()
    job.outcomes = {
        (case.key, "P0"): "pass",
        (case.key, "P3"): "fail:ordering",
        (case.key, "Pz"): "IRError",
    }
    errors, failed = run.gate(job, [case], table)
    assert errors == [] and len(failed) == 2
    job.outcomes[(case.key, "P0")] = "fail:ordering"
    errors, failed = run.gate(job, [case], table)
    assert len(errors) == 1 and len(failed) == 2


def measure(workload, cases):
    """One untraced and one traced job; both metric sets and the gate."""
    api = run.load_api()
    untraced = run.run_job(api, run.layer_calls(api), cases)
    tracer = Tracer()
    traced = run.traced_job(api, tracer, cases)
    table = json.loads(run.EXPECTED.read_text())[workload]
    errors, failed = run.gate(untraced, cases, table)
    traced_errors, traced_failed = run.gate(traced, cases, table)
    return (
        run.end_to_end(0.1, [untraced]),
        run.per_layer(tracer, [traced], [untraced]),
        errors + traced_errors,
        failed + traced_failed,
    )


def test_counts_repeat_and_every_metric_is_emitted():
    for workload in gen.WORKLOADS:
        cases = gen.WORKLOADS[workload](5)
        first_e2e, first_layer, errors, failed = measure(workload, cases)
        assert errors == []
        # The only failed operations are the recorded IRErrors.
        assert all(f.endswith("got IRError, expected IRError") for f in failed), failed
        second_e2e, second_layer, _, _ = measure(workload, cases)
        assert set(first_e2e) == {m["name"] for m in SPEC["end_to_end"]}
        assert {m["name"] for m in SPEC["per_layer"]} <= set(first_layer)
        for name in DETERMINISTIC:
            assert first_e2e[name] == second_e2e[name], name
        for name in DETERMINISTIC_LAYER:
            assert first_layer[name] == second_layer[name], name
        for name, m in first_e2e.items():
            assert m["value"] > 0, name
