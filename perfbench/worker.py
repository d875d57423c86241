"""One benchmark client: a fresh interpreter calling smfdenoise.cli.main serially.

Usage: python3 perfbench/worker.py SPEC.json

The worker imports the CLI, loads the configuration and reads the first
inputs, prints ``ready`` (the parent times set-up up to that line), and then,
unless the spec is set-up only, runs the planned rounds of CLI calls in a
closed loop: each call starts when the previous one has returned.  After the
first round it stops at the first call boundary past ``seconds`` of timed
work, or after ``fixed_rounds`` whole rounds, and writes per-call timings,
CPU time and peak RSS to the spec's ``results`` file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _call(cli, argv, tracer):
    """Run one CLI call; returns (exit code or None, error text or None)."""
    try:
        if tracer is None:
            return cli.main(argv), None
        with tracer.span("cli.main"):
            return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code, f"SystemExit: {exc.code}"
    except Exception as exc:  # one failed call must not end the run
        return None, f"{type(exc).__name__}: {exc}"


def _schedule(spec):
    """(round, index, call) in order; endless unless the round count is fixed."""
    rounds = spec["rounds"]
    r = 0
    while spec["fixed_rounds"] is None or r < spec["fixed_rounds"]:
        # inputs wrap around if a fast program outruns the generated rounds
        for i, call in enumerate(rounds[r % len(rounds)]):
            yield r, i, call
        r += 1


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from smfdenoise import bench, cli, fileio
    from smfdenoise.config import load_config

    load_config(spec["config"])
    if "corpus" in spec["setup"]:
        bench.read_corpus(spec["setup"]["corpus"])
    else:
        fileio.load_raster(spec["setup"]["raster"])
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()

    calls = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t_start = time.perf_counter()
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        for r, i, call in _schedule(spec):
            if (spec["fixed_rounds"] is None and r > 0
                    and time.perf_counter() - t_start >= spec["seconds"]):
                break
            argv = [a.replace("{out}", spec["out"]).replace("{r}", str(r))
                    for a in call["argv"]]
            t0 = time.perf_counter()
            rc, err = _call(cli, argv, tracer)
            calls.append({"round": r, "index": i, "rc": rc, "error": err,
                          "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - t_start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "calls": calls,
        "rounds": calls[-1]["round"] + 1,
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,
    }
    Path(spec["results"]).write_text(json.dumps(result))
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
