"""The repository benchmark: one seeded, single-process, single-threaded
batch job per workload, run back to back as a closed loop with one client.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

A job is the user's whole task on the workload's programs: prepare,
`optimize` under each preset, interpreter runs, `check_observation_preserving`
and `audit_chain_preservation`. Jobs repeat until `--seconds` have
passed; timings are medians over the jobs. Every job's outputs go
through the correctness gate, and the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
jobs alternate between untraced and traced; the traced ones record spans
around the calls into each layer and give the per-layer metrics, and the
difference between the two kinds of job is the tracing overhead. See
METRICS.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import gen
from spans import LAYERS, STATUSES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 9
# A shared machine's speed drifts by a quarter within seconds (other tenants
# of the host). Every timed section is scaled by the probe run before and
# after it, to a machine on which the probe takes NOMINAL_PROBE_S. The
# probe runs at a section boundary once PROBE_EVERY_S have passed since
# the last one, and at the end of every program.
PROBE_LOOPS = 100_000
NOMINAL_PROBE_S = 0.012
PROBE_EVERY_S = 0.5
MIN_JOBS = 3
EXCLUDED_CHANNELS = frozenset({"tailio", "cc"})
MODULES = ("ir", "patterns", "passes", "interp", "deps", "validate")


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def load_api() -> SimpleNamespace:
    """Import the package afresh and load the prelude."""
    for name in [n for n in sys.modules if n == "opaqueir" or n.startswith("opaqueir.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"opaqueir.{m}") for m in MODULES})
    api.patterns.prelude_macros()
    return api


def probe() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def setup(workload: str, seed: int):
    """Set up SETUP_REPEATS times; return the median scaled time, the
    package and the workload's cases."""
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        api = load_api()
        cases = gen.WORKLOADS[workload](seed)
        elapsed = time.perf_counter() - t0
        after = probe()
        times.append(elapsed * NOMINAL_PROBE_S * 2 / (before + after))
        before = after
    return statistics.median(times), api, cases


# --------------------------------------------------------------------------
# One job
# --------------------------------------------------------------------------


class Job:
    """Timings, counts and outcomes of one pass over the workload."""

    def __init__(self):
        self.times: Counter = Counter()  # (case name, stage) -> scaled seconds
        self.pending: list[tuple[tuple[str, str], float]] = []  # not yet scaled
        self.last_probe = probe()
        self.mark = time.perf_counter()  # end of the last probe
        self.wall_s = 0.0
        self.outcomes: dict[tuple[str, str], str] = {}
        self.steps_ratio: list[float] = []
        self.overhead: dict[str, list[float]] = defaultdict(list)
        self.size_ratio: list[float] = []
        self.affected: Counter = Counter()
        self.instrs_out = 0
        self.verdicts: Counter = Counter()
        self.ir_errors: set[str] = set()  # IRError messages
        self.errors: list[str] = []  # outputs that differ from the expected ones

    def record(self, case: str, stage: str, t0: float) -> None:
        """Add the section of `case` that began at t0 to `stage`."""
        self.pending.append(((case, stage), time.perf_counter() - t0))
        self.tick(case)

    def tick(self, case: str, force: bool = False) -> None:
        """Probe if it is time, or if forced, and scale everything since
        the last probe by the mean of the two: the pending sections, and
        the whole stretch as the job time of `case`."""
        now = time.perf_counter()
        if not force and now - self.mark < PROBE_EVERY_S:
            return
        p = probe()
        scale = NOMINAL_PROBE_S * 2 / (self.last_probe + p)
        self.pending.append(((case, "job"), now - self.mark))
        for key, seconds in self.pending:
            self.times[key] += seconds * scale
        self.pending = []
        self.last_probe = p
        self.mark = time.perf_counter()


def _outcome(report) -> str:
    failing = [name for name, v in report.checks() if not v.passed]
    return "fail:" + ",".join(failing) if failing else "pass"


def _out_values(result) -> tuple:
    return tuple(v[0] for v in result.io_behavior().get(("w", "out"), ("ordered", ()))[1])


def _n_instrs(api, program) -> int:
    return len(api.passes.program_iids(program))


def run_case(api, L, case, job: Job) -> None:
    """Compile, run, validate and audit one case under every preset."""
    now = time.perf_counter
    IRError = api.ir.IRError
    t0 = now()
    program, info = L.prepare(case.text)
    twin, twin_info = L.prepare(case.twin)
    job.record(case.name, "compile", t0)
    specs = [api.interp.parse_input(t) for t in case.inputs]

    refs = [L.run(program, s, type_info=info.var_types) for s in specs]
    twin_refs = [L.run(twin, s, type_info=twin_info.var_types) for s in specs]
    for ref, twin_ref, expected in zip(refs, twin_refs, case.expected_out):
        for r in (ref, twin_ref):
            if r.trapped is not None or _out_values(r) != expected:
                job.errors.append(f"{case.name}: reference run wrote {_out_values(r)} "
                                  f"(trap {r.trapped!r}), expected {expected}")
                return

    size = _n_instrs(api, program)
    for preset in case.presets:
        t0 = now()
        try:
            if preset == gen.UNSAFE:
                res, twin_res = L.unsafe(program), None
            else:
                res, twin_res = L.optimize(program, preset=preset), L.optimize(twin, preset=preset)
        except IRError as exc:
            job.record(case.name, "compile", t0)
            job.outcomes[(case.key, preset)] = "IRError"
            job.ir_errors.add(f"{case.name} {preset}: {str(exc).split(';')[0]}")
            continue
        job.record(case.name, "compile", t0)
        opts = [L.run(res.program, s) for s in specs]
        twin_opts = [L.run(twin_res.program, s) for s in specs] if twin_res else []
        for ref, opt in zip(refs, opts):
            if opt.trapped is not None or opt.io_behavior() != ref.io_behavior():
                job.errors.append(f"{case.name} {preset}: optimized io differs from the reference")

        t0 = now()
        report = L.check(program, res.program, res.provenance, specs)
        job.record(case.name, "validate", t0)
        outcome = _outcome(report)
        job.outcomes[(case.key, preset)] = outcome
        job.verdicts["pass" if report.passed else "fail"] += 1

        if preset == case.audit_preset:
            if case.audit_twin:
                ref, opt, prov = twin_refs[0], twin_opts[0], twin_res.provenance
            else:
                ref, opt, prov = refs[0], opts[0], res.provenance
            t0 = now()
            verdict = L.audit(ref, opt, prov, inputs=specs[0])
            job.record(case.name, "audit", t0)
            job.outcomes[(case.key, f"audit@{preset}")] = "pass" if verdict.passed else "fail"
        if preset == gen.UNSAFE:
            continue

        job.instrs_out += _n_instrs(api, res.program)
        for name, affected in res.log:
            job.affected[name] += affected
        for ref, twin_opt, opt in zip(refs, twin_opts, opts):
            if twin_opt.io_behavior(EXCLUDED_CHANNELS) != ref.io_behavior(EXCLUDED_CHANNELS):
                job.errors.append(f"{case.name} {preset}: optimized twin io differs")
            job.overhead[case.pattern].append(opt.steps / twin_opt.steps)
            if preset != "P0":
                job.steps_ratio.append(opt.steps / ref.steps)
        if preset != "P0":
            job.size_ratio.append(_n_instrs(api, res.program) / size)


def run_job(api, L, cases) -> Job:
    """One pass over the cases."""
    job = Job()
    t_start = time.perf_counter()
    for case in cases:
        run_case(api, L, case, job)
        job.tick(case.name, force=True)
    job.wall_s = time.perf_counter() - t_start
    return job


def traced_job(api, tracer, cases) -> Job:
    """One job with every layer entry point wrapped in spans."""
    tracer.install(api)
    idx = tracer.open("bench.job")
    try:
        return run_job(api, layer_calls(api, tracer), cases)
    finally:
        tracer.close(idx)
        tracer.restore()


def layer_calls(api, tracer=None) -> SimpleNamespace:
    """The benchmark's own calls into the layers, wrapped in spans when
    a tracer is given."""
    L = SimpleNamespace(
        prepare=api.patterns.prepare,
        optimize=api.passes.optimize,
        unsafe=api.passes.unsafe_const_fold_opaque,
        run=api.interp.run,
        check=api.validate.check_observation_preserving,
        audit=api.validate.audit_chain_preservation,
    )
    if tracer is None:
        return L
    return SimpleNamespace(
        prepare=tracer.wrap("patterns.prepare", L.prepare),
        optimize=tracer.wrap("passes.pipeline", L.optimize),
        unsafe=tracer.wrap("passes.unsafe_const_fold_opaque", L.unsafe),
        run=tracer.wrap("interp.run", L.run, tracer.on_run),
        check=tracer.wrap("validate.check_observation_preserving", L.check),
        audit=tracer.wrap("validate.audit_chain_preservation", L.audit),
    )


# --------------------------------------------------------------------------
# Correctness gate
# --------------------------------------------------------------------------


def gate(job: Job, cases, table: dict) -> tuple[list[str], list[str]]:
    """Check a job's outcomes; return the errors and the failed operations.

    An operation is one verdict: a (program, preset) compilation and
    validation, the unsafe fold's included, or an audit. The errors are
    wrong outputs, which void the run: a reference or optimized run that
    writes the wrong values, a P0 verdict other than pass, or an unsafe
    fold that passes where the program holds a foldable observed opaque
    region or fails where it holds none. An operation fails when it
    raised `IRError` or its verdict differs from the one recorded in
    expected.json when the benchmark was defined."""
    by_key = {c.key: c for c in cases}
    errors = list(job.errors)
    failed = []
    for (key, column), got in sorted(job.outcomes.items()):
        if column in ("P0", gen.UNSAFE):
            want = "pass" if column == "P0" or not by_key[key].foldable else "fail"
            if got.split(":")[0] != want:
                errors.append(f"{key} {column}: got {got}, expected {want}")
                continue
        recorded = table.get(key, {}).get(column)
        if got == "IRError" or got != recorded:
            failed.append(f"{key} {column}: got {got}, expected {recorded}")
    return errors, failed


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def stage_time(jobs: list[Job], stage: str) -> float:
    """Sum over the programs of each program's median over the jobs, in
    seconds scaled to the nominal probe time. Medians per program rather
    than per job keep a burst of load from other processes, which hits a
    few programs of one job, out."""
    keys = {key for j in jobs for key in j.times if key[1] == stage}
    return sum(statistics.median(j.times[key] for j in jobs) for key in keys)


def end_to_end(setup_s: float, jobs: list[Job]) -> dict:
    last = jobs[-1]
    return {
        "setup_s": metric(setup_s, "s"),
        "compile_s": metric(stage_time(jobs, "compile"), "s"),
        "validate_s": metric(stage_time(jobs, "validate"), "s"),
        "audit_s": metric(stage_time(jobs, "audit"), "s"),
        "job_s": metric(stage_time(jobs, "job"), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "steps_ratio": metric(geomean(last.steps_ratio), "ratio"),
        "protection_overhead": metric(
            geomean(v for vs in last.overhead.values() for v in vs), "ratio"
        ),
        "code_size_ratio": metric(geomean(last.size_ratio), "ratio"),
    }


PASS_NAMES = ("copyprop", "constprop", "instcombine", "dse", "dce", "loop_unroll")


def per_layer(tracer, traced: list[Job], untraced: list[Job]) -> dict:
    """Per-job means over the traced jobs. Means, not medians, so that
    the layers' self times add up to `trace.job_s`."""
    n = len(traced)
    totals = tracer.self_times()
    layer_self: dict[str, float] = defaultdict(float)
    for name, t in totals.items():
        layer_self[name.split(".")[0]] += t
    c = tracer.counts
    per = lambda v: v / n  # noqa: E731
    s = lambda name: metric(per(totals.get(name, 0.0)), "s")  # noqa: E731
    count = lambda key: metric(per(c[key]), "count")  # noqa: E731
    last = traced[-1]
    traced_job = per(sum(totals.values()))  # the mean `bench.job` span
    untraced_job = statistics.mean(j.wall_s for j in untraced)

    out = {
        "ir.parse_s": s("ir.parse"),
        "ir.expand_macros_s": s("ir.expand_macros"),
        "ir.typecheck_s": s("ir.typecheck"),
        "ir.typecheck_calls": count("ir.typecheck_calls"),
        "patterns.prepare_s": s("patterns.prepare"),
    }
    for p in PASS_NAMES:
        out[f"passes.{p}_s"] = s(f"passes.{p}")
        out[f"passes.{p}.affected"] = metric(last.affected[p], "count")
    out["passes.pipeline_s"] = s("passes.pipeline")
    out["passes.instrs_out"] = metric(last.instrs_out, "count")
    for p in gen.PATTERNS:
        out[f"patterns.protection_overhead.{p}"] = metric(geomean(last.overhead.get(p, ())), "ratio")
    run_s = per(totals.get("interp.run", 0.0))
    out["interp.run_s"] = metric(run_s, "s")
    out["interp.runs"] = count("interp.runs")
    out["interp.events"] = count("interp.events")
    out["interp.events_per_s"] = metric(per(c["interp.events"]) / run_s if run_s else 0.0, "1/s")
    out["deps.analyze_s"] = s("deps.analyze")
    out["deps.analyze_calls"] = count("deps.analyze_calls")
    out["deps.cd_total"] = count("deps.cd_total")
    out["deps.hb_s"] = s("deps.hb")
    out["deps.hb_pairs"] = count("deps.hb_pairs")
    out["validate.check_ordering_s"] = s("validate.check_ordering")
    out["deps.find_chains_s"] = s("deps.find_chains")
    for key in ("chains", "links_audited", "links_unique"):
        out[f"deps.{key}"] = count(f"deps.{key}")
    audited = c["deps.links_audited"]
    out["deps.link_useful_ratio"] = metric(c["deps.links_unique"] / audited if audited else 0.0, "ratio")
    out["deps.value_set_s"] = s("deps.value_set")
    out["deps.reruns"] = count("deps.reruns")
    out["deps.replayed_events"] = count("deps.replayed_events")
    for status in STATUSES:
        out[f"deps.value_set.{status}"] = count(f"deps.value_set.{status}")
    out["validate.compare_traces_s"] = s("validate.compare_traces")
    out["validate.event_map_s"] = s("validate.event_map")
    out["validate.verdicts.pass"] = metric(last.verdicts["pass"], "count")
    out["validate.verdicts.fail"] = metric(last.verdicts["fail"], "count")
    for layer in LAYERS:
        out[f"trace.self_s.{layer}"] = metric(per(layer_self.get(layer, 0.0)), "s")
    out["trace.job_s"] = metric(traced_job, "s")
    out["trace.untraced_job_s"] = metric(untraced_job, "s")
    out["trace.overhead"] = metric(traced_job / untraced_job - 1, "ratio")
    return out


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "long-loop", "chain-audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opaqueir" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'opaqueir'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = json.loads(EXPECTED.read_text())[args.workload]
    setup_s, api, cases = setup(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    plain = layer_calls(api)
    untraced: list[Job] = []
    traced: list[Job] = []
    errors: list[str] = []
    failed: list[str] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        gc.collect()
        if tracer is not None and i % 2 == 1:
            job = traced_job(api, tracer, cases)
            traced.append(job)
        else:
            job = run_job(api, plain, cases)
            untraced.append(job)
        job_errors, job_failed = gate(job, cases, table)
        errors += job_errors
        failed += job_failed
        i += 1
        enough = len(untraced) >= MIN_JOBS and (tracer is None or len(traced) >= MIN_JOBS)
        if errors or (enough and time.perf_counter() >= deadline):
            break

    jobs = untraced + traced
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    if errors:
        metrics = {}  # the outputs are wrong, so the figures mean nothing
    elif tracer is not None:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(setup_s, untraced)
    for f in sorted(set().union(*(j.ir_errors for j in jobs))):
        print(f"IRError: {f}", file=sys.stderr)
    for f in sorted(set(failed)):
        print(f"failed: {f}", file=sys.stderr)
    for e in errors[:20]:
        print(f"gate: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(j.outcomes) for j in jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
