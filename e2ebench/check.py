"""Output checks of the end-to-end benchmark.

Every check compares the timed run's outputs with something the timed
run did not produce:

* ``golden`` — the committed golden corpus, exactly, through
  ``golden.verify(golden.default_root())``;
* :func:`compare_references` — per-cell stats digests committed in
  ``references.json``: every cell of the default seed
  (:data:`DEFAULT_SEED`) has one, and since all seeds share the traces
  (``gen.TRACE_SEED``), every other seed's cells that also occur at the
  default seed are checked too — for ``fig4-cold`` and ``sweep-hybrid``
  that is all of them;
* :func:`invariants` — checks that hold for any seed: every cell is
  present and repeats identically across repetitions, issue slots are
  conserved (``sum(slot_counts[unit]) == cycles * width``), the router
  stays within its promotion budget, and a re-submitted service job
  returns exactly its first answer.

Promoted hybrid cells are byte-identical to their cycle twins: ``refresh``
runs every promoted cell's cycle twin and refuses to write references
that differ, and each run then matches every cell's digest and fidelity
against those references.

Each mismatch names the workload, the cell and the metric.  Run as::

    python3 e2ebench/check.py golden
    python3 e2ebench/check.py outputs WORKLOAD SEED OUTPUTS_JSON REPORT_JSON
    python3 e2ebench/check.py refresh      # rewrite references.json

``outputs`` also computes ``analytic_ipc_err_pct`` (it needs fresh
analytic and cycle runs, so it is done here, outside the timed region).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import gen

REFERENCES = Path(__file__).resolve().parent / "references.json"
#: the seed the committed per-cell references were produced with
DEFAULT_SEED = 0
#: stored per cell beside the digest, so a mismatch names the metric
REF_METRICS = ("fidelity", "cycles", "committed", "ipc", "line_fills",
               "ff_jumps", "mshr_alloc_failures")
#: environment switches that select alternative code paths
ENV_RECORDED = ("REPRO_GENERIC_MEM", "REPRO_NO_NUMPY", "REPRO_WORKERS")


def digest(stats: dict) -> str:
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def reference_entry(stats: dict) -> dict:
    committed, cycles = stats["committed"], stats["cycles"]
    entry = {m: stats[m] for m in REF_METRICS if m in stats}
    entry["ipc"] = committed / cycles if cycles else 0.0
    entry["digest"] = digest(stats)
    return entry


def recorded_env() -> dict:
    return {name: os.environ.get(name) for name in ENV_RECORDED}


def compare_references(workload: str, labels: dict, results: dict,
                       stored: dict, require_all: bool = True) -> list[str]:
    """Diff ``results`` (``key -> stats dict``) against stored entries.

    A cell without a stored entry is a mismatch only with
    ``require_all``; :func:`invariants` checks that no cell is missing.
    """
    problems = []
    for key, stats in sorted(results.items()):
        want = stored.get(key)
        if want is None:
            if require_all:
                problems.append(
                    f"{workload}: cell {labels.get(key, key)} [{key}]: "
                    "no stored reference"
                )
            continue
        got = reference_entry(stats)
        moved = [m for m in want if m != "digest" and got.get(m) != want[m]]
        if not moved and got["digest"] != want["digest"]:
            moved = ["digest"]
        for metric in moved:
            problems.append(
                f"{workload}: cell {labels.get(key, key)} [{key}]: "
                f"{metric}: reference {want.get(metric)!r}, "
                f"this run {got.get(metric)!r}"
            )
    return problems


def _conservation(workload: str, label: str, spec, stats: dict) -> list[str]:
    cfg = spec.machine_config()
    problems = []
    for unit, width in ((0, cfg.ap_width), (1, cfg.ep_width)):
        total = sum(stats["slot_counts"][unit])
        if total != stats["cycles"] * width:
            problems.append(
                f"{workload}: cell {label}: slot_counts[{unit}] sums to "
                f"{total}, expected cycles*width = {stats['cycles'] * width}"
            )
    return problems


def invariants(workload: str, seed: int, outputs: dict) -> list[str]:
    """Seed-independent checks over one run's outputs.

    ``outputs`` holds ``reps`` (one ``key -> stats`` dict per repetition),
    and for the service ``jobs`` (per server lifetime, the completed jobs:
    ``index``, ``of``, ``results``).
    """
    specs = {s.key(): s for s in gen.specs_for(workload, seed)}
    labels = {k: s.label() for k, s in specs.items()}
    problems = []
    reps = outputs["reps"]
    first = reps[0]
    for key in specs:
        if key not in first:
            problems.append(f"{workload}: cell {labels[key]} [{key}]: missing")
    for key, stats in first.items():
        if key not in specs:
            problems.append(f"{workload}: unexpected cell [{key}]")
            continue
        if stats.get("fidelity") != "analytic":
            problems += _conservation(workload, labels[key], specs[key], stats)
    for i, rep in enumerate(reps[1:], start=2):
        for key, stats in rep.items():
            if first.get(key) != stats:
                problems.append(
                    f"{workload}: cell {labels.get(key, key)} [{key}]: "
                    f"repetition {i} differs from repetition 1"
                )
    for jobs in outputs.get("jobs", []):
        by_index = {job["index"]: job for job in jobs}
        for job in jobs:
            original = by_index.get(job["of"])
            if original is None:
                continue
            for key, stats in job["results"].items():
                if original["results"].get(key) != stats:
                    problems.append(
                        f"{workload}: cell {labels.get(key, key)} [{key}]: "
                        f"re-submitted job {job['index']} answered "
                        f"differently from job {job['of']}"
                    )
    if workload == "sweep-hybrid":
        problems += _promotion_budget(first)
    return problems


def _twin(spec, backend: str):
    return dataclasses.replace(spec, backend=backend, router=None)


def _promotion_budget(results: dict) -> list[str]:
    """The router promoted at least one cell and no more than its cap."""
    from repro.engine import RouterSpec

    promoted = sum(stats["fidelity"] != "analytic" for stats in results.values())
    cap = RouterSpec().promote_cap(len(results))
    if not 1 <= promoted <= cap:
        return [f"sweep-hybrid: {promoted} cells promoted, expected 1..{cap}"]
    return []


def _promoted_twins(specs: list, result) -> list[str]:
    """Promoted cells against a fresh, cache-less cycle run of each."""
    from repro.engine import Engine

    promoted = [s for s in specs if result.router[s]["fidelity"] == "cycle"]
    twins = {s: _twin(s, "cycle") for s in promoted}
    fresh = Engine(workers=1, cache=None).map(list(twins.values()))
    return [
        f"sweep-hybrid: cell {s.label()} [{s.key()}]: promoted result is "
        "not byte-identical to a fresh cycle run"
        for s in promoted
        if fresh[twins[s]].to_dict() != result[s].to_dict()
    ]


def analytic_error_pct(workload: str, seed: int, outputs: dict) -> float:
    """Mean |IPC error| (%) of the analytic model against cycle fidelity
    over the run's cycle-fidelity cells: the promoted cells of the hybrid
    sweep, every fig4 cell, the service's cold cycle cells."""
    from repro.engine import Engine

    specs = {s.key(): s for s in gen.specs_for(workload, seed)}
    results = outputs["reps"][0]
    cycle_keys = [
        k for k in results
        if k in specs and (
            specs[k].backend == "cycle"
            or outputs.get("fidelity", {}).get(k) == "cycle"
        )
    ]
    twins = {k: _twin(specs[k], "analytic") for k in cycle_keys}
    analytic = Engine(workers=1, cache=None).map(list(twins.values()))
    errors = []
    for key in cycle_keys:
        stats = results[key]
        cycle_ipc = stats["committed"] / stats["cycles"]
        errors.append(abs(analytic[twins[key]].ipc - cycle_ipc) / cycle_ipc)
    return 100.0 * sum(errors) / len(errors) if errors else float("nan")


def check_outputs(workload: str, seed: int, outputs: dict) -> dict:
    """All output checks of one run; returns ``{"problems", ...}``."""
    problems = invariants(workload, seed, outputs)
    references = load_references()
    stored = references["workloads"].get(workload, {})
    labels = {s.key(): s.label() for s in gen.specs_for(workload, seed)}
    for rep in outputs["reps"]:
        problems += compare_references(
            workload, labels, rep, stored, require_all=seed == DEFAULT_SEED
        )
    ref_cells = len(set(outputs["reps"][0]) & set(stored))
    if problems and references.get("env") != recorded_env():
        # results do not depend on these switches by design, but a
        # mismatch is easier to chase knowing they differed
        problems.append(
            f"{workload}: note: references were recorded with "
            f"{references.get('env')}, this run has {recorded_env()}"
        )
    return {
        "problems": problems,
        "reference_cells": ref_cells,
        "analytic_ipc_err_pct": analytic_error_pct(workload, seed, outputs),
        "env": recorded_env(),
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def refresh() -> None:
    """Recompute the default-seed references in this process.

    Every workload's distinct specs run through a cache-less serial
    engine, the same computation the timed runs perform: a service job
    returns exactly the engine's stats for each of its specs.  The
    promoted hybrid cells must equal their cycle twins, or nothing is
    written.
    """
    from repro.engine import Engine

    doc = {"seed": DEFAULT_SEED, "scale": gen.SCALE, "env": recorded_env(),
           "workloads": {}}
    for workload in ("fig4-cold", "sweep-hybrid", "service-mixed"):
        specs = gen.specs_for(workload, DEFAULT_SEED)
        result = Engine(workers=1, cache=None).map(specs)
        if workload == "sweep-hybrid":
            problems = _promoted_twins(specs, result)
            if problems:
                raise SystemExit("\n".join(problems))
        doc["workloads"][workload] = {
            s.key(): reference_entry(result[s].to_dict()) for s in specs
        }
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    cmd = argv[1]
    if cmd == "golden":
        from repro.experiments import golden

        problems = golden.verify(golden.default_root())
        for line in problems:
            print(f"golden: {line}")
        return 1 if problems else 0
    if cmd == "outputs":
        workload, seed, in_path, out_path = argv[2:6]
        with open(in_path, encoding="utf-8") as fh:
            outputs = json.load(fh)
        report = check_outputs(workload, int(seed), outputs)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0
    if cmd == "refresh":
        refresh()
        return 0
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
