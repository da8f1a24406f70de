"""``repro-sim serve`` with the benchmark's clock, spans or profiler attached.

    python3 e2ebench/serve.py MODE OUT_PATH SERVE_ARGS...

``MODE`` is ``plain`` (the timed, untraced service: a
:class:`refclock.RefClock` runs from interpreter start, and its slices
are written to ``OUT_PATH`` as JSON once the server has drained),
``spans`` (layer spans written to ``OUT_PATH`` as JSON lines, the
characterization walk count to ``OUT_PATH.json``) or ``profile`` (a
cProfile per engine thread, reduced to per-stage and memory self time
and written to ``OUT_PATH`` as JSON).
"""

from __future__ import annotations

import json
import sys
import threading


def main(argv: list[str]) -> int:
    mode, out_path, serve_args = argv[1], argv[2], argv[3:]
    if mode == "plain":
        import refclock

        clock = refclock.RefClock().start()
        try:
            from repro import cli

            return cli.main(["serve", *serve_args])
        finally:
            clock.stop()
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"slices": clock.slices}, fh)

    from repro import cli

    if mode == "spans":
        import spans

        rec = spans.Recorder(f"serve-{out_path}")
        spans.instrument(rec)
        try:
            return cli.main(["serve", *serve_args])
        finally:
            rec.active = False
            rec.dump(out_path)
            charwalk = sys.modules.get("repro.model.charwalk")
            walks = charwalk._characterize.cache_info().misses if charwalk else 0
            with open(out_path + ".json", "w", encoding="utf-8") as fh:
                json.dump({"walks": walks}, fh)

    import cProfile
    import pstats

    import spans

    profiles: list[cProfile.Profile] = []

    def start_profile(_frame, _event, _arg):
        # runs once in each new thread (the engines' executor threads),
        # then hands the thread over to its own profiler
        sys.setprofile(None)
        profile = cProfile.Profile()
        profiles.append(profile)
        profile.enable()

    threading.setprofile(start_profile)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        threading.setprofile(None)
        for profile in profiles:
            profile.create_stats()
        times = (
            spans.stage_times(pstats.Stats(*profiles).stats) if profiles else {}
        )
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"profile": times}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
