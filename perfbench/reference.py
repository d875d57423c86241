#!/usr/bin/env python3
"""Regenerate perfbench/reference.json.  Run from the repository root:

    python3 perfbench/reference.py

``rmse``: for each method of corpus30 and frame64, the mean, standard
deviation and count of the per-image RMSE against ground truth over many
inputs made by the workloads' own generators.  Every benchmark run checks
its mean RMSE per method against these within a Monte Carlo tolerance.

``counts``: exact counts of the traced run of each workload at seed 0 and
the run_seconds of BENCHMARK.json, so that later claims resting on counts
can cite them.  Takes about ten minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import numpy as np

import run

REF_SEED = 1000
REF_ROUNDS = {"corpus30": 20, "frame64": 20}   # 60 corpus images, 20 crops
COUNT_SEED = 0
COUNTS = ("sampler.sweeps", "lattice.q_builds", "sampler.factor_fill",
          "lattice.mask_unchanged_frac")


def rmse_reference(name: str) -> dict:
    from smfdenoise import cli

    work = run.OUT / f"reference-{name}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        cfg = work / "bench.cfg"
        cfg.write_text(f"T={run.PAPER.n_iter}\nburn_in={run.PAPER.n_iter // 2}\n"
                       f"seed={REF_SEED}\n")
        plan = run.WORKLOADS[name].plan(work, str(cfg), REF_SEED, REF_ROUNDS[name], run.PAPER)
        calls = []
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            for r, round_calls in enumerate(plan.rounds):
                for i, call in enumerate(round_calls):
                    argv = [a.replace("{out}", str(work / "out")).replace("{r}", str(r))
                            for a in call["argv"]]
                    calls.append({"round": r, "index": i, "rc": cli.main(argv),
                                  "error": None, "seconds": 1.0})
        tally = run.Tally()
        stats = run.check_outputs(plan, {"calls": calls}, work / "out", run.PAPER, tally)
        if tally.failed:
            raise SystemExit(f"{name}: reference outputs failed checks: {tally.messages}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {}
    for st in stats.values():
        for method, values in st["rmse"].items():
            v = np.array(values)
            out[method] = {"mean": float(v.mean()), "sd": float(v.std(ddof=1)), "n": int(v.size)}
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ref = {"rmse_seed": REF_SEED, "rmse": {}, "count_seed": COUNT_SEED,
           "count_seconds": seconds, "counts": {}}
    for name in REF_ROUNDS:
        ref["rmse"][name] = rmse_reference(name)
        print(name, ref["rmse"][name], flush=True)
    for name in run.WORKLOADS:
        result = run.run_workload(name, COUNT_SEED, seconds, trace=True)
        rows = {n: v for n, v, _, _ in result["rows"]}
        ref["counts"][name] = {n: rows[n] for n in COUNTS}
        ref["counts"][name]["rounds"] = result["rounds"]
        print(name, ref["counts"][name], flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
