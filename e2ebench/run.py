"""End-to-end benchmark of repro-sim: one workload, one seed, one result line.

    python3 e2ebench/run.py --workload fig4-cold --seed 0 --seconds 20 --trace 0

Run from the repository root.  Workloads (see :mod:`layers` for why each
was chosen and :mod:`gen` for the inputs):

* ``fig4-cold`` — the 48-cell fig4 grid through ``Engine(workers=1)``
  with a cold cache;
* ``sweep-hybrid`` — the 216-cell router grid on the ``hybrid`` backend,
  cold cache, one worker;
* ``service-mixed`` — ``repro-sim serve --service-workers 2 --workers 1``
  driven by two closed-loop HTTP clients through a seeded job sequence.

Every timed repetition starts a fresh interpreter (the CLI user pays the
process-wide memos — traces, characterization walks, the router's error
model, the engine memo — on every invocation), with a fresh cache and
``REPRO_SCALE`` pinned; ``REPRO_CACHE_DIR`` and ``XDG_CACHE_HOME`` are
removed from the children's environment.  Repetitions run while another
one still fits in ``--seconds`` (at least one), and each timing is the
median over them.

Host timings are reference seconds (:mod:`refclock`): the timed process
(the batch child, the server) runs short slices of a fixed kernel
throughout, the slices are taken out of every interval, and the rest is
rescaled by the mean duration of the slices that ran during it.  On a
shared 2-core container, raw seconds of the same code drift by a third
within minutes while its reference seconds hold within a few percent.
The raw host seconds are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and span-traced repetitions, adds one profiled repetition and
prints the per-layer metrics, including the tracing overhead.  Spans are
kept as JSON lines under ``.e2ebench/traces/``.

After timing, the outputs are checked against the golden corpus, the
committed per-cell references (default seed) and the seed-independent
invariants (:mod:`check`).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))

import layers  # noqa: E402

#: set-up probes per run on top of the timed repetitions' own set-ups
SETUP_PROBES = 5
#: a child that takes longer than this has hung
CHILD_TIMEOUT_S = 170.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Bench:
    """One benchmark invocation: directories, environment, children."""

    def __init__(self, root: Path, workload: str, seed: int):
        import gen

        self.root = root
        self.workload = workload
        self.seed = seed
        #: spec keys every repetition must deliver
        self.expected = {s.key() for s in gen.specs_for(workload, seed)}
        #: the job sequence of each server lifetime, and its warm-up job
        self.jobs = gen.service_jobs(seed)
        self.warmup = {"kind": "warmup", "specs": [gen.warmup_spec()],
                       "of": None}
        base = root / ".e2ebench"
        self.work = base / "work" / f"{workload}-s{seed}-{os.getpid()}"
        self.traces = base / "traces"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.traces.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        for name in ("REPRO_CACHE_DIR", "XDG_CACHE_HOME", "PYTHONPATH",
                     "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
            env.pop(name, None)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
        env["REPRO_SCALE"] = "0.25"
        # the same string hashing, hence dict layout, in every process
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.work)
        self.env = env
        self._n = 0

    def fresh_dir(self, tag: str) -> Path:
        self._n += 1
        path = self.work / f"{self._n:03d}-{tag}"
        path.mkdir()
        return path

    def spawn(self, args: list[str], log: Path) -> tuple[float, subprocess.Popen]:
        """Start ``python3 ARGS`` with stdout and stderr going to ``log``."""
        with open(log, "wb") as out:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.root, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
            )
        return t_spawn, proc

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Timer:
    """Reference seconds of intervals in one process that ran a
    :class:`refclock.RefClock`; raw wall seconds when it did not."""

    def __init__(self, slices: list):
        import refclock

        self.clock = refclock
        self.slices = slices
        self.slice_ms = refclock.mean_slice(slices) * 1000.0 if slices else None

    def host(self, start: float, end: float) -> float:
        return self.clock.host_seconds(self.slices, start, end)

    def seconds(self, start: float, end: float) -> float:
        if not self.slices:
            return end - start
        return self.clock.to_ref(
            self.host(start, end),
            self.clock.local_slice(self.slices, start, end),
        )


def wait_rss(proc: subprocess.Popen, what: str) -> float:
    """Reap ``proc`` with ``wait4`` (killing it after
    :data:`CHILD_TIMEOUT_S`); returns its own peak RSS in MB."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"{what}: timed out")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{what}: exit {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def run_child(bench: Bench, mode: str) -> dict:
    """One repetition of a batch workload; returns the child's document
    plus ``setup_s``, ``wall_s``, ``latencies_ms`` (reference seconds
    when the child ran a clock), ``host_s`` (raw) and ``peak_rss_mb``."""
    cache = bench.fresh_dir(mode)
    out_path = cache / "out.json"
    log = cache / "child.log"
    t_spawn, proc = bench.spawn([
        str(HERE / "child.py"), bench.workload, str(bench.seed),
        str(cache / "cache"), str(out_path), mode,
    ], log)
    try:
        rss = wait_rss(proc, f"{bench.workload} {mode} repetition")
    except RuntimeError as exc:
        raise RuntimeError(
            f"{exc}\n{log.read_text(errors='replace')[-3000:]}"
        ) from None
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ref = Timer(doc["slices"])
    doc["setup_s"] = ref.seconds(t_spawn, doc["t_submit"])
    doc["peak_rss_mb"] = rss
    if "t_done" in doc:
        doc["host_s"] = ref.host(doc["t_submit"], doc["t_done"])
        doc["wall_s"] = ref.seconds(doc["t_submit"], doc["t_done"])
        doc["slice_ms"] = ref.slice_ms
        doc["latencies_ms"] = [
            1000.0 * ref.seconds(doc["t_submit"], t) for t in doc["delivered"]
        ]
    spans_path = Path(str(out_path) + ".spans.jsonl")
    if spans_path.exists():
        import spans

        doc["spans"] = spans.load(spans_path)
        shutil.copy(spans_path, bench.traces /
                    f"{bench.workload}-seed{bench.seed}-{cache.name}.jsonl")
    return doc


def run_lifetime(bench: Bench, mode: str) -> dict:
    """One server lifetime of the service workload."""
    import client

    work = bench.fresh_dir(mode)
    rec = None
    cmd = [sys.executable, str(HERE / "serve.py"), mode,
           str(work / f"server.{mode}")]
    if mode == "spans":
        import spans

        rec = spans.Recorder(f"client-{work.name}")
    doc = client.lifetime(cmd, bench.env, work, bench.warmup, bench.jobs, rec)
    if mode == "plain":
        with open(work / "server.plain", encoding="utf-8") as fh:
            ref = Timer(json.load(fh)["slices"])
        doc["setup_s"] = ref.seconds(doc["t_spawn"], doc["t_setup"])
        doc["host_s"] = ref.host(doc["t_start"], doc["t_stop"])
        doc["wall_s"] = ref.seconds(doc["t_start"], doc["t_stop"])
        doc["slice_ms"] = ref.slice_ms
        for job in doc["jobs"]:
            if job and job["ok"]:
                job["latency_ms"] = 1000.0 * ref.seconds(job["t_post"],
                                                         job["t_end"])
    elif mode == "spans":
        import spans

        server_spans = spans.load(work / "server.spans")
        rec.dump(work / "client.spans")
        doc["spans"] = server_spans + spans.load(work / "client.spans")
        with open(bench.traces /
                  f"{bench.workload}-seed{bench.seed}-{work.name}.jsonl",
                  "w", encoding="utf-8") as fh:
            for span in doc["spans"]:
                fh.write(json.dumps(span) + "\n")
        with open(str(work / "server.spans") + ".json", encoding="utf-8") as fh:
            doc.update(json.load(fh))
    elif mode == "profile":
        with open(work / "server.profile", encoding="utf-8") as fh:
            doc.update(json.load(fh))
    return doc


def repetitions(bench: Bench, seconds: float, trace: bool) -> list[dict]:
    """Timed repetitions while the next one is expected to end within
    ``seconds`` (modes alternate when tracing), then one profiled
    repetition when tracing."""
    run = run_lifetime if bench.workload == "service-mixed" else run_child
    modes = ("plain", "spans") if trace else ("plain",)
    reps: list[dict] = []
    took: list[float] = []
    t0 = time.monotonic()
    while len(reps) < len(modes) or (
        time.monotonic() - t0 + statistics.median(took) <= seconds
    ):
        mode = modes[len(reps) % len(modes)]
        t_rep = time.monotonic()
        reps.append(dict(run(bench, mode), mode=mode))
        took.append(time.monotonic() - t_rep)
    if trace:
        reps.append(dict(run(bench, "profile"), mode="profile"))
    return reps


def setup_probes(bench: Bench) -> list[float]:
    """Extra set-up samples: interpreter start to first submitted spec
    (batch workloads; a server lifetime measures its own set-up)."""
    if bench.workload == "service-mixed":
        return []
    return [run_child(bench, "setup")["setup_s"] for _ in range(SETUP_PROBES)]


# -- outputs and checks -------------------------------------------------------


def outputs_of(bench: Bench, reps: list[dict]) -> tuple[dict, int, int]:
    """The checkable outputs of the timed repetitions, plus the
    attempted and failed operation counts (cells, or service jobs)."""
    attempted = failed = 0
    out: dict = {"reps": [], "fidelity": {}, "jobs": []}
    for rep in reps:
        if rep["mode"] == "profile":
            continue
        if "jobs" in rep:
            merged: dict = {}
            jobs = []
            for i, job in enumerate(rep["jobs"]):
                attempted += 1
                if job is None or not job["ok"]:
                    failed += 1
                    continue
                merged.update(job["results"])
                jobs.append({"index": i, "of": bench.jobs[i]["of"],
                             "results": job["results"]})
            out["reps"].append(merged)
            out["jobs"].append(jobs)
        else:
            attempted += len(bench.expected)
            failed += len(bench.expected - set(rep["results"]))
            out["reps"].append(rep["results"])
            out["fidelity"] = rep["fidelity"]
    return out, attempted, failed


def run_checks(bench: Bench, outputs: dict) -> tuple[list[str], dict]:
    """Golden corpus and output checks, in two children side by side."""
    in_path = bench.work / "outputs.json"
    report_path = bench.work / "report.json"
    with open(in_path, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)
    golden_log, check_log = bench.work / "golden.log", bench.work / "check.log"
    _, golden = bench.spawn([str(HERE / "check.py"), "golden"], golden_log)
    _, check = bench.spawn([
        str(HERE / "check.py"), "outputs", bench.workload, str(bench.seed),
        str(in_path), str(report_path),
    ], check_log)
    for proc in (golden, check):
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    problems = []
    if golden.returncode != 0:
        problems.append(
            "golden corpus: " + golden_log.read_text(errors="replace").strip()
        )
    if check.returncode != 0:
        problems.append(
            "output check crashed: "
            + check_log.read_text(errors="replace")[-3000:]
        )
        return problems, {}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return problems + report["problems"], report


# -- metrics ------------------------------------------------------------------


def end_to_end(reps: list[dict], probes: list[float], report: dict) -> dict:
    timed = [r for r in reps if r["mode"] == "plain"]
    lat: list[float] = []
    cells_rate, jobs_rate = [], []
    for rep in timed:
        if "jobs" in rep:
            done = [j for j in rep["jobs"] if j and j["ok"]]
            lat += [j["latency_ms"] for j in done]
            cells_rate.append(
                sum(len(j["results"]) for j in done) / rep["wall_s"]
            )
            jobs_rate.append(len(done) / rep["wall_s"])
        else:
            lat += rep["latencies_ms"]
            cells_rate.append(rep["n_cells"] / rep["wall_s"])
            jobs_rate.append(1.0 / rep["wall_s"])
    values = {
        "cells_per_s": (statistics.median(cells_rate), len(cells_rate)),
        "jobs_per_s": (statistics.median(jobs_rate), len(jobs_rate)),
        "job_latency_p50_ms": (percentile(lat, 50), len(lat)),
        "job_latency_p90_ms": (percentile(lat, 90), len(lat)),
        "analytic_ipc_err_pct": (report.get("analytic_ipc_err_pct"), 1),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in timed), len(timed)
        ),
        "setup_s": (
            statistics.median([r["setup_s"] for r in timed] + probes),
            len(timed) + len(probes),
        ),
    }
    return values


def _median_of(reps: list[dict], fn) -> float:
    values = [fn(r) for r in reps]
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_layers(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one span-traced repetition."""
    import spans as spanlib

    spans = rep["spans"]
    own = spanlib.self_times(spans)
    count: dict[str, int] = {}
    attrs: dict[str, list[dict]] = {}
    for s in spans:
        count[s["name"]] = count.get(s["name"], 0) + 1
        if "attrs" in s:
            attrs.setdefault(s["name"], []).append(s["attrs"])
    runs = attrs.get("core.run", [])
    routes = attrs.get("router.route_grid", [])
    gets = attrs.get("engine.cache_get", [])
    pools = {tuple(a["pool"]) for a in attrs.get("workloads.wrongpath_build", [])}

    def total(key: str, rows=runs) -> float:
        return sum(a[key] for a in rows)

    run_s = own.get("core.run", 0.0)
    screened, promoted = total("n_screened", routes), total("n_promoted", routes)
    builds = count.get("workloads.wrongpath_build", 0)
    return {
        "workloads.synth_s": own.get("workloads.synthesize", 0.0),
        "workloads.synth_calls": count.get("workloads.synthesize", 0),
        "workloads.wrongpath_s": own.get("workloads.wrongpath_build", 0.0),
        "workloads.wrongpath_builds": builds,
        "workloads.wrongpath_useful_ratio": _ratio(len(pools), builds),
        "engine.instantiate_s": own.get("engine.instantiate", 0.0),
        "engine.map_self_s": own.get("engine.map", 0.0),
        "engine.cache_get_s": own.get("engine.cache_get", 0.0),
        "engine.cache_gets": len(gets),
        "engine.cache_hit_ratio": _ratio(sum(a["hit"] for a in gets), len(gets)),
        "engine.cache_put_s": own.get("engine.cache_put", 0.0),
        "engine.cache_puts": count.get("engine.cache_put", 0),
        "core.run_s": run_s,
        "core.cycles": total("sim_cycles"),
        "core.committed": total("sim_committed"),
        "core.kips": _ratio(total("sim_committed"), run_s) / 1000.0,
        "core.host_ns_per_cycle": _ratio(run_s, total("sim_cycles")) * 1e9,
        "core.ff_jumps": total("ff_jumps"),
        "core.ff_skip_ratio": _ratio(total("ff_cycles_skipped"),
                                     total("cycles")),
        "memory.loads": total("loads"),
        "memory.load_misses": total("load_misses"),
        "memory.mshr_alloc_failures": total("mshr_alloc_failures"),
        "memory.blocked_requests": total("blocked_requests"),
        "memory.line_fills": total("line_fills"),
        "memory.bus_utilization_mean": _ratio(total("bus_utilization"),
                                              len(runs)),
        "model.characterize_s": own.get("model.characterize", 0.0),
        "model.walks": rep.get("walks", 0),
        "model.solve_s": own.get("model.solve", 0.0),
        "model.solve_calls": count.get("model.solve", 0),
        "router.route_self_s": own.get("router.route_grid", 0.0),
        "router.n_screened": screened,
        "router.n_promoted": promoted,
        "router.promote_ratio": _ratio(promoted, screened + promoted),
        "stats.serialize_s": own.get("stats.to_dict", 0.0)
        + own.get("stats.from_dict", 0.0),
        "stats.serialize_calls": count.get("stats.to_dict", 0)
        + count.get("stats.from_dict", 0),
    }


def service_layers(reps: list[dict]) -> dict[str, float]:
    """Client-side service timings (untraced lifetimes only)."""
    jobs = [j for r in reps for j in r.get("jobs", []) if j and j["ok"]]

    def med(key: str) -> float:
        values = [j[key] for j in jobs if j.get(key) is not None]
        return statistics.median(values) if values else 0.0

    return {
        "service.post_ms": med("post_ms"),
        "service.queue_wait_ms": med("queue_wait_ms"),
        "service.run_ms": med("run_ms"),
        "service.notify_ms": med("notify_ms"),
        "service.coalesced_specs": _median_of(
            [r for r in reps if "metrics" in r],
            lambda r: r["metrics"]["coalesced_specs"],
        ),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "spans"]
    profiled = [r for r in reps if r["mode"] == "profile"]
    rows = [span_layers(r) for r in traced]
    values = {name: statistics.median(row[name] for row in rows)
              for name in rows[0]}
    profile = profiled[0]["profile"]
    for stage in layers.STAGES:
        values[f"core.stage.{stage}_s"] = profile.get(stage, 0.0)
    values["memory.self_s"] = profile.get("memory", 0.0)
    values.update(service_layers(plain))
    # raw host seconds: traced repetitions run without the clock
    values["trace.overhead_ratio"] = _ratio(
        _median_of(traced, lambda r: r["wall_s"]),
        _median_of(plain, lambda r: r["host_s"]),
    )
    return values


# -- entry point --------------------------------------------------------------


def fail_setup(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(layers.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/repro/cli.py", "tests/golden",
                   "benchmarks/conformance/corpus.json"):
        if not (root / needed).exists():
            return fail_setup(
                f"{needed} not found: run from the repository root"
            )
    sys.path.insert(0, str(root / "src"))
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    bench = Bench(root, args.workload, args.seed)
    try:
        probes = setup_probes(bench)
        reps = repetitions(bench, args.seconds, bool(args.trace))
        outputs, attempted, failed = outputs_of(bench, reps)
        problems, report = run_checks(bench, outputs)
    except RuntimeError as exc:
        # a repetition crashed or hung: no metrics, and not correct
        print(f"FAILED {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        bench.cleanup()

    if args.trace:
        values = {k: (v, None) for k, v in per_layer(reps).items()}
        catalogue = {name: unit for name, unit, _b, _m in layers.PER_LAYER}
    else:
        values = end_to_end(reps, probes, report)
        catalogue = {name: unit for name, unit, _b, _bd in layers.END_TO_END}

    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={sum(r['mode'] != 'profile' for r in reps)} "
          f"env={report.get('env')}")
    for name, unit in catalogue.items():
        value, samples = values[name]
        tail = f"  (n={samples})" if samples is not None else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit}{tail}")
    plain = [r for r in reps if r["mode"] == "plain"]
    print("  raw host seconds of the timed repetitions: "
          + " ".join(f"{r['host_s']:.3f}" for r in plain)
          + "; mean reference slice (ms): "
          + " ".join(f"{r['slice_ms']:.3f}" for r in plain))
    print(f"  reference-checked cells: {report.get('reference_cells', 0)}")
    for line in problems:
        print(f"MISMATCH {line}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in catalogue.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
