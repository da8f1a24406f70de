"""The benchmark's own tests.

    python3 -m pytest e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = tuple(layers.WORKLOADS)


def _bench_doc() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- metric names -------------------------------------------------------------


def test_metric_names_are_well_formed():
    names = [m[0] for m in layers.END_TO_END] + [m[0] for m in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(layers.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_catalogue():
    doc = _bench_doc()
    assert [w["name"] for w in doc["workloads"]] == list(layers.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER
    ]


def _span(run_id, span_id, parent, name, start, end, attrs=None):
    doc = {"run": run_id, "id": span_id, "parent": parent, "name": name,
           "start": start, "end": end}
    if attrs:
        doc["attrs"] = attrs
    return doc


def test_per_layer_reports_exactly_the_catalogue():
    run_attrs = {
        "sim_cycles": 100, "sim_committed": 50, "cycles": 80, "ff_jumps": 2,
        "ff_cycles_skipped": 8, "loads": 10, "load_misses": 3,
        "mshr_alloc_failures": 0, "blocked_requests": 1, "line_fills": 3,
        "bus_utilization": 0.5,
    }
    traced = {
        "mode": "spans", "wall_s": 1.1, "walks": 1,
        "spans": [
            _span("r", 1, None, "engine.map", 0.0, 1.0),
            _span("r", 2, 1, "core.run", 0.1, 0.5, run_attrs),
            _span("r", 3, 1, "engine.cache_get", 0.6, 0.7, {"hit": False}),
        ],
    }
    plain = {"mode": "plain", "wall_s": 0.9, "host_s": 1.0}
    profiled = {"mode": "profile", "profile": {"fetch": 0.2, "memory": 0.1}}
    values = run.per_layer([plain, traced, profiled])
    assert set(values) == {m[0] for m in layers.PER_LAYER}
    assert values["core.run_s"] == 0.4
    assert values["core.kips"] == 50 / 0.4 / 1000
    assert values["core.stage.fetch_s"] == 0.2
    assert values["trace.overhead_ratio"] == 1.1


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    s = [
        _span("a", 1, None, "root", 0.0, 10.0),
        _span("a", 2, 1, "child", 1.0, 4.0),
        _span("a", 3, 1, "child", 3.0, 6.0),  # overlaps its sibling
        _span("a", 4, 2, "leaf", 1.0, 2.0),
        # another run reusing the same ids must not leak into run "a"
        _span("b", 1, None, "root", 0.0, 1.0),
        _span("b", 2, 1, "child", 0.0, 0.25),
    ]
    own = spans.self_times(s)
    assert own["root"] == (10.0 - 5.0) + (1.0 - 0.25)
    assert own["child"] == (3.0 - 1.0) + 3.0 + 0.25
    assert own["leaf"] == 1.0


def test_recorder_nests_spans_and_records_attrs():
    rec = spans.Recorder("r")

    def inner():
        return 7

    def outer():
        return rec.call("inner", inner, (), {}, lambda args, r: {"r": r})

    assert rec.call("outer", outer, (), {}) == 7
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["inner"][6] == {"r": 7}
    rec.active = False
    rec.call("off", inner, (), {})
    assert "off" not in {s[2] for s in rec.spans}


def test_stage_times_splits_shared_helpers_and_memory():
    tick_a = (str(ROOT / "src/repro/core/stages.py"), 1, "tick")
    tick_b = (str(ROOT / "src/repro/core/stages.py"), 2, "tick")
    helper = ("x.py", 3, "helper")
    mem = (str(ROOT / "src/repro/memory/hierarchy.py"), 4, "access")
    builtin = ("~", 0, "<built-in method append>")
    table = {
        # func: (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})
        tick_a: (1, 1, 1.0, 3.0, {}),
        tick_b: (1, 1, 2.0, 3.0, {}),
        helper: (2, 2, 1.0, 2.0, {tick_a: (1, 1, 0.5, 1.5),
                                   tick_b: (1, 1, 0.5, 0.5)}),
        mem: (1, 1, 0.5, 0.6, {helper: (1, 1, 0.5, 0.6)}),
        builtin: (1, 1, 0.1, 0.1, {mem: (1, 1, 0.1, 0.1)}),
    }
    real_ticks = spans._stage_ticks
    spans._stage_ticks = lambda: {tick_a: "a", tick_b: "b"}
    try:
        out = spans.stage_times(table)
    finally:
        spans._stage_ticks = real_ticks
    assert out["memory"] == 0.5 + 0.1
    assert out["a"] == 1.0 + 0.75
    assert out["b"] == 2.0 + 0.25


# -- reference clock ----------------------------------------------------------


def test_reference_seconds_take_out_slices_and_rescale():
    slices = [(1.0, 1.1, 0.1), (2.0, 2.1, 0.1), (3.0, 3.1, 0.1)]
    assert abs(refclock.paused(slices, 1.05, 3.0) - 0.15) < 1e-12
    # another thread ran for half of this slice's wall time
    assert abs(refclock.paused([(1.0, 1.2, 0.1)], 0.0, 1.1) - 0.05) < 1e-12
    host = refclock.host_seconds(slices, 0.0, 4.0)
    assert abs(host - 3.7) < 1e-12
    slice_s = refclock.mean_slice(slices)
    assert abs(slice_s - 0.1) < 1e-12
    # a host twice as slow as the reference reads half the seconds
    assert abs(refclock.to_ref(2.0, 2 * refclock.REF_SLICE_S) - 1.0) < 1e-12
    timer = run.Timer(slices)
    assert abs(timer.seconds(0.0, 4.0) - 3.7 * refclock.REF_SLICE_S / 0.1) < 1e-9
    # an interval's speed comes from the slices that ran during it
    n = 3 * refclock.LOCAL_SLICES
    fast = [(t, t + 0.25, 0.25) for t in range(n)]
    slow = [(t, t + 0.5, 0.5) for t in range(n, 2 * n)]
    assert refclock.local_slice(fast + slow, 0.0, n - 0.5) == 0.25
    assert refclock.local_slice(fast + slow, n, 2 * n - 0.5) == 0.5
    # too short an interval borrows its nearest slices
    assert refclock.local_slice(fast + slow, n / 2, n / 2 + 0.1) == 0.25
    assert run.Timer([]).seconds(0.0, 4.0) == 4.0


def test_reference_clock_records_its_slices():
    clock = refclock.RefClock()
    clock.run_slices(2)
    assert len(clock.slices) == 2
    assert all(b > a and cpu > 0 for a, b, cpu in clock.slices)


# -- output checks ------------------------------------------------------------


def _one_fig4_cell():
    from repro.engine import Engine

    spec = gen.fig4_specs()[0]
    stats = Engine.serial().map([spec])[spec].to_dict()
    return spec, stats


def test_reference_check_passes_and_fails_on_a_perturbed_value():
    spec, stats = _one_fig4_cell()
    refs = check.load_references()["workloads"]["fig4-cold"]
    labels = {spec.key(): spec.label()}
    results = {spec.key(): stats}
    assert check.compare_references("fig4-cold", labels, results, refs) == []

    for metric, bump in (("cycles", 1), ("digest", "0" * 20)):
        bad = copy.deepcopy(refs)
        want = bad[spec.key()][metric]
        bad[spec.key()][metric] = want + bump if metric == "cycles" else bump
        problems = check.compare_references("fig4-cold", labels, results, bad)
        assert len(problems) == 1
        assert problems[0].startswith(f"fig4-cold: cell {spec.label()} ")
        assert f": {metric}: reference " in problems[0]


def test_invariants_catch_broken_conservation_and_repeats():
    spec, stats = _one_fig4_cell()
    outputs = {"reps": [{spec.key(): stats}], "fidelity": {}}
    problems = check.invariants("fig4-cold", check.DEFAULT_SEED, outputs)
    # only the 47 cells this test did not run are reported (as missing)
    assert len(problems) == 47
    assert all(p.endswith(": missing") for p in problems)

    broken = copy.deepcopy(stats)
    broken["slot_counts"][0][0] += 1
    outputs["reps"].append({spec.key(): broken})
    outputs["reps"][0] = {spec.key(): broken}
    problems = check.invariants("fig4-cold", check.DEFAULT_SEED, outputs)
    assert any("slot_counts[0]" in p and spec.label() in p for p in problems)

    outputs["reps"] = [{spec.key(): stats}, {spec.key(): broken}]
    problems = check.invariants("fig4-cold", check.DEFAULT_SEED, outputs)
    assert any("repetition 2 differs" in p for p in problems)


# -- seeded inputs ------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in WORKLOADS:
        a = [s.key() for s in gen.specs_for(workload, 3)]
        assert a == [s.key() for s in gen.specs_for(workload, 3)]
        b = [s.key() for s in gen.specs_for(workload, 4)]
        if workload == "fig4-cold":
            assert a == b  # the paper's grid has no free choice
        elif workload == "sweep-hybrid":
            assert a != b and sorted(a) == sorted(b)  # only the order moves
        else:
            assert a != b
    jobs = gen.service_jobs(3)
    assert [(j["kind"], j["of"], j["specs"]) for j in jobs] == [
        (j["kind"], j["of"], j["specs"]) for j in gen.service_jobs(3)
    ]
    assert [(j["kind"], j["of"]) for j in jobs] != [
        (j["kind"], j["of"]) for j in gen.service_jobs(4)
    ]
    warm = gen.warmup_spec()
    assert all(warm not in j["specs"] for j in jobs)


def test_service_mix_is_fixed_and_resubmissions_point_back():
    jobs = gen.service_jobs(11)
    assert len(jobs) == gen.SERVICE_JOBS
    assert [j["kind"] for j in jobs] == [j["kind"] for j in gen.service_jobs(12)]
    for i, job in enumerate(jobs):
        if job["kind"] == "resubmit":
            assert job["of"] < i and jobs[job["of"]]["of"] is None
    cold = [j["specs"][0] for j in jobs if j["kind"] == "cold"]
    assert len(set(cold)) == len(cold)
