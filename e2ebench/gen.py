"""Seeded inputs of the end-to-end benchmark.

Everything the simulator is handed comes from here, as a pure function of
the benchmark's ``--seed``:

* ``fig4-cold`` runs the paper's fig4 grid, which has no free choice:
  every seed runs the same 48 cells in the same order;
* ``sweep-hybrid`` submits the router grid in a seed-shuffled order (the
  router's answers must not depend on it);
* ``service-mixed`` draws its job parameters from the seed: the batches'
  latencies and which earlier job each re-submission repeats.

Every spec synthesizes its traces with :data:`TRACE_SEED`, the seed of the
paper's figures and of the golden corpus.  The analytic model's error
depends on the traces, so a per-run trace seed would make
``analytic_ipc_err_pct`` move with the seed rather than with the code;
and with fixed traces the committed per-cell references apply to every
seed.  Every spec pins :data:`SCALE` explicitly, so the ambient
``REPRO_SCALE`` cannot change what runs.
"""

from __future__ import annotations

import random

from repro.engine import RouterSpec, RunSpec, Sweep

#: ``RunSpec.scale`` of every generated spec
SCALE = 0.25
#: ``RunSpec.seed`` (trace synthesis) of every generated spec
TRACE_SEED = 0

#: the paper's fig4 grid
FIG4_THREADS = (1, 2, 3, 4)
FIG4_LATENCIES = (1, 16, 32, 64, 128, 256)

#: the 216-cell grid of ``benchmarks/router_smoke.py``
SWEEP_THREADS = (1, 2, 3, 4)
SWEEP_LATENCIES = tuple(range(4, 436, 16))

#: the kinds of the service's jobs, in order: cold cycle cells, 8-cell
#: analytic batches and re-submissions of earlier jobs.  The pattern is
#: fixed, so every seed offers the same traffic shape; the seed draws the
#: jobs' parameters.
SERVICE_PATTERN = ("cold", "batch", "resubmit", "cold", "batch",
                   "cold", "resubmit", "batch", "cold", "resubmit")
#: jobs in one server lifetime
SERVICE_JOBS = 4 * len(SERVICE_PATTERN)
#: pre-scale per-thread budgets of the service's small cycle cells
COLD_COMMITS = 4000
COLD_WARMUP = 2000
BATCH_CELLS = 8


def fig4_specs() -> list[RunSpec]:
    """The 48 cells ``experiments.figures.fig4`` simulates, in its order."""
    return list(Sweep.grid(
        RunSpec.multiprogrammed,
        decoupled=(True, False),
        n_threads=FIG4_THREADS,
        l2_latency=FIG4_LATENCIES,
        seed=TRACE_SEED,
        scale=SCALE,
    ))


def sweep_specs(seed: int) -> list[RunSpec]:
    """The router smoke grid on the hybrid backend, default router, in a
    seed-shuffled order."""
    specs = list(Sweep.grid(
        lambda n_threads, l2_latency, decoupled: RunSpec.multiprogrammed(
            n_threads,
            l2_latency=l2_latency,
            decoupled=decoupled,
            seed=TRACE_SEED,
            scale=SCALE,
            backend="hybrid",
            router=RouterSpec(),
        ),
        n_threads=SWEEP_THREADS,
        l2_latency=SWEEP_LATENCIES,
        decoupled=(True, False),
    ))
    random.Random(seed).shuffle(specs)
    return specs


def _cold_cell(i: int) -> RunSpec:
    # latency, thread count and mode rotate: the i-th cold cell is the
    # same for every seed, so the analytic error over them is too
    return RunSpec.multiprogrammed(
        1 + i // len(FIG4_LATENCIES) % 2,
        l2_latency=FIG4_LATENCIES[i % len(FIG4_LATENCIES)],
        decoupled=i // (2 * len(FIG4_LATENCIES)) % 2 == 0,
        seed=TRACE_SEED,
        commits_per_thread=COLD_COMMITS,
        warmup_per_thread=COLD_WARMUP,
        scale=SCALE,
    )


def _batch(rng: random.Random, i: int) -> list[RunSpec]:
    # thread count and mode rotate; the latencies are drawn
    return [
        RunSpec.multiprogrammed(
            SWEEP_THREADS[i % len(SWEEP_THREADS)], l2_latency=lat,
            decoupled=i // len(SWEEP_THREADS) % 2 == 0, seed=TRACE_SEED,
            scale=SCALE, backend="analytic",
        )
        for lat in sorted(rng.sample(SWEEP_LATENCIES, BATCH_CELLS))
    ]


def warmup_spec() -> RunSpec:
    """The untimed first job of a server lifetime: it makes the server
    synthesize the traces every later job shares.  L2 = 1 is outside
    :data:`SWEEP_LATENCIES`, so no batch cell is served from its cache
    entry."""
    return RunSpec.multiprogrammed(
        1, l2_latency=1, seed=TRACE_SEED, scale=SCALE, backend="analytic"
    )


def service_jobs(seed: int) -> list[dict]:
    """The job sequence of one server lifetime.

    Each job is ``{"kind", "specs", "of"}``: ``of`` is the index of the
    job a re-submission repeats (``None`` otherwise).  The seed draws the
    batches' latencies and which job each re-submission repeats; kinds,
    cold cells, thread counts and modes follow fixed patterns, so every
    seed's traffic costs about the same.  No two cold cells share
    latency, thread count and mode, so each one really writes the cache.
    """
    rng = random.Random(seed)
    jobs: list[dict] = []
    for i in range(SERVICE_JOBS):
        kind = SERVICE_PATTERN[i % len(SERVICE_PATTERN)]
        n_kind = sum(j["kind"] == kind for j in jobs)
        if kind == "resubmit":
            # alternately repeat a cold cell and a batch
            target = ("cold", "batch")[n_kind % 2]
            of = rng.choice([k for k, j in enumerate(jobs) if j["kind"] == target])
            jobs.append({"kind": kind, "specs": jobs[of]["specs"], "of": of})
        elif kind == "batch":
            jobs.append({"kind": kind, "specs": _batch(rng, n_kind),
                         "of": None})
        else:
            jobs.append({"kind": kind, "specs": [_cold_cell(n_kind)],
                         "of": None})
    return jobs


def specs_for(workload: str, seed: int) -> list[RunSpec]:
    """Every distinct spec a workload hands the program, in order."""
    if workload == "fig4-cold":
        return fig4_specs()
    if workload == "sweep-hybrid":
        return sweep_specs(seed)
    if workload == "service-mixed":
        specs = [s for job in service_jobs(seed) for s in job["specs"]]
        return list(dict.fromkeys(specs))
    raise KeyError(f"unknown workload {workload!r}")
