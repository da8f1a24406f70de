"""One repetition of a batch workload, in a fresh interpreter.

    python3 e2ebench/child.py WORKLOAD SEED CACHE_DIR OUT_JSON MODE

``MODE`` is ``plain`` (timed, untraced), ``spans`` (layer spans, written
next to ``OUT_JSON`` as ``.spans.jsonl``), ``profile`` (cProfile around
the map, for per-stage and memory self time) or ``setup`` (stop at the
moment the first spec would be submitted: a set-up probe).  ``plain``
and ``setup`` run a :class:`refclock.RefClock` from the start and write
its slices, so the parent can take them out of every interval and
rescale it to reference seconds.

The parent passes the seed; the specs come from :mod:`gen`.  All times
are ``time.monotonic()`` readings, so the parent can subtract its own
spawn time from ``t_submit`` to get the set-up time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: back-to-back reference slices after a set-up probe's submission point
SETUP_SLICES = 8


def main(argv: list[str]) -> int:
    workload, seed, cache_dir, out_path, mode = argv[1:6]
    seed = int(seed)
    clock = None
    if mode in ("plain", "setup"):
        import refclock

        clock = refclock.RefClock().start()

    import gen
    from repro.engine import Engine, ResultCache

    specs = gen.specs_for(workload, seed)
    rec = profiler = None
    if mode == "spans":
        import spans

        rec = spans.Recorder(f"{workload}-{Path(out_path).parent.name}")
        spans.instrument(rec)

    wanted = set(specs)
    delivered: dict = {}

    def progress(_event, spec):
        if spec in wanted and spec not in delivered:
            delivered[spec] = time.monotonic()

    engine = Engine(workers=1, cache=ResultCache(cache_dir), progress=progress)
    if mode == "setup":
        t_submit = time.monotonic()
        clock.stop()
        # set-up spans two slices or so: add a few for the host's speed
        clock.run_slices(SETUP_SLICES)
        _write(out_path, {"t_submit": t_submit, "slices": clock.slices})
        return 0
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t_submit = time.monotonic()
    result = engine.map(specs)
    t_done = time.monotonic()
    if clock is not None:
        clock.stop()
    if profiler is not None:
        profiler.disable()
    if rec is not None:
        rec.active = False
        rec.dump(out_path + ".spans.jsonl")

    doc = {
        "t_submit": t_submit,
        "t_done": t_done,
        "n_cells": len(result),
        "delivered": [delivered.get(spec, t_done) for spec in specs],
        "results": {spec.key(): result[spec].to_dict() for spec in specs},
        "fidelity": {
            spec.key(): prov["fidelity"] for spec, prov in result.router.items()
        },
        "walks": _walks(),
        "slices": clock.slices if clock is not None else [],
    }
    if profiler is not None:
        import pstats

        import spans

        doc["profile"] = spans.stage_times(pstats.Stats(profiler).stats)
    _write(out_path, doc)
    return 0


def _walks() -> int:
    """Characterization walks actually performed (lru_cache misses)."""
    charwalk = sys.modules.get("repro.model.charwalk")
    return charwalk._characterize.cache_info().misses if charwalk else 0


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
