"""Steadiness report: run the benchmark over several seeds per workload.

    python3 e2ebench/steady.py --seeds 10 [--workloads fig4-cold,...]
                               [--out set1.json] [--against set0.json]

For every pair of end-to-end metric and workload it prints the median and
the quartiles (``statistics.quantiles(values, n=4)``) of the per-run
values, and the spread — the interquartile distance as a share of the
median.  A spread above the metric's bound is flagged ``OVER``, one above
a third of it ``WIDE``, for every metric, ``setup_s`` included.  With
``--against`` it also flags every median that is worse than the earlier
set's by more than the bound.  Seeds are ``0 .. N-1``; run-to-run results
are kept in ``--out`` (under ``.e2ebench/`` by default).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    return json.loads(last)


def summarize(results: dict, against: dict | None) -> list[str]:
    lines = []
    flags = 0
    for workload, runs in results.items():
        for name, _unit, better, bound in layers.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ("OVER" if spread > bound
                    else "WIDE" if spread > bound / 3 else "")
            if against is not None and workload in against:
                old = [r["metrics"][name]["value"] for r in against[workload]]
                old_med = statistics.median(old)
                new_med = statistics.median(values)
                worse = (new_med - old_med if better == "lower"
                         else old_med - new_med) / old_med
                if worse > bound:
                    flag += f" WORSE {worse:+.1%}"
            flags += bool(flag)
            lines.append(
                f"{workload:14s} {name:22s} median {med:12.5g}  "
                f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:6.1%}  "
                f"bound {bound:.0%}  {flag}"
            )
    lines.append(f"{flags} flagged")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(layers.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(args.seeds):
            doc = run_once(workload, seed, seconds)
            if not doc["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
            results[workload].append(doc)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in doc["metrics"].items()
            ), flush=True)
    out = Path(args.out or ".e2ebench/steady.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))
    against = None
    if args.against:
        against = json.loads(Path(args.against).read_text())
    print("\n".join(summarize(results, against)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
