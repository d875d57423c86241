#!/usr/bin/env python3
"""smfdenoise benchmark: three CLI workloads, end-to-end metrics, and a traced
run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus30 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Each run generates its inputs from --seed, spawns fresh worker processes
that call ``smfdenoise.cli.main`` (see worker.py), checks every output, and
prints a metric table followed by one JSON line with the keys correct,
attempted, failed and metrics.  perfbench/README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (after the BLAS thread cap)

import tracing  # noqa: E402

SETUP_REPEATS = 2        # set-up-only workers, plus the timed worker's own set-up
INPUT_HEADROOM = 4       # generate inputs for a program up to this much faster
RUN_LIMIT_S = 170.0      # kill workers that would push a run past this
RMSE_Z = 5.0             # Monte Carlo tolerance, in standard errors
BASELINES = ("ga", "av", "wi", "nlm")
SAMPLERS = ("higmrf", "igmrf")
REPORT_HEADER = "image,method,rmse,psnr_db,kld,ssim,wall_ms"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass(frozen=True)
class Scale:
    """Input sizes; the self-test shrinks them."""

    side: int = 30          # corpus30 / chains30 image side
    frame: int = 128        # frame64 source frame side
    crop: int = 64          # frame64 crop side
    chunk: int = 3          # images per bench call (corpus30)
    chains: int = 4         # chains per diagnose call (chains30)
    n_iter: int = 100       # Gibbs sweeps per chain (the paper's T)


PAPER = Scale()
TINY = Scale(side=10, frame=24, crop=12, chunk=2, chains=2, n_iter=8)


@dataclass
class Plan:
    rounds: list        # per round, the CLI calls as JSON-able dicts
    setup: dict         # what the worker reads during set-up
    truths: dict        # frame64: round -> truth crop


# ---------------------------------------------------------------- inputs


def _bench_call(corpus: Path, cfg: str, tag: str, methods: tuple, images: int) -> dict:
    return {"kind": "bench", "tag": tag, "methods": list(methods), "images": images,
            "argv": ["bench", "--corpus", str(corpus), "--methods", ",".join(methods),
                     "--config", cfg, "--report", f"{{out}}/report_{{r}}_{tag}.csv"]}


def plan_corpus30(work: Path, cfg: str, seed: int, n_rounds: int, s: Scale) -> Plan:
    from smfdenoise import bench
    from smfdenoise.synth import SynthConfig, generate_corpus

    pairs = generate_corpus(SynthConfig(n1=s.side, n2=s.side,
                                        n_images=s.chunk * n_rounds, seed=seed))
    rounds = []
    for r in range(n_rounds):
        d = work / f"corpus_{r}"
        d.mkdir()
        bench.write_corpus(d, pairs[r * s.chunk:(r + 1) * s.chunk], [])
        rounds.append([_bench_call(d, cfg, "higmrf", ("higmrf",), s.chunk),
                       _bench_call(d, cfg, "igmrf", ("igmrf",), s.chunk),
                       _bench_call(d, cfg, "baselines", BASELINES, s.chunk)])
    return Plan(rounds, {"corpus": str(work / "corpus_0")}, {})


def plan_frame64(work: Path, cfg: str, seed: int, n_rounds: int, s: Scale) -> Plan:
    from smfdenoise.fileio import write_raster_csv
    from smfdenoise.synth import SynthConfig, generate_corpus

    # the paper's spot density (3-8 spots per 30x30) on a larger frame
    base = SynthConfig()
    ratio = s.frame * s.frame / (base.n1 * base.n2)
    pairs = generate_corpus(SynthConfig(
        n1=s.frame, n2=s.frame, n_images=n_rounds, seed=seed,
        spots_min=round(base.spots_min * ratio), spots_max=round(base.spots_max * ratio)))
    origin_rng = np.random.default_rng([seed, s.crop])
    rounds, truths = [], {}
    c = s.crop
    for r, pair in enumerate(pairs):
        frame = work / f"frame_{r}.csv"
        write_raster_csv(frame, pair.noisy)
        r0, c0 = (int(v) for v in origin_rng.integers(0, s.frame - c + 1, size=2))
        truths[r] = pair.truth.to_2d()[r0:r0 + c, c0:c0 + c].copy()
        rounds.append([
            {"kind": "denoise", "tag": v, "images": 1,
             "argv": ["denoise", "--input", str(frame), "--crop", f"{r0},{c0},{c},{c}",
                      "--variant", v, "--config", cfg,
                      "--out-mean", f"{{out}}/mean_{{r}}_{v}.csv",
                      "--out-mask", f"{{out}}/mask_{{r}}_{v}.csv",
                      "--out-trace", f"{{out}}/trace_{{r}}_{v}.csv"]}
            for v in SAMPLERS])
    return Plan(rounds, {"raster": str(work / "frame_0.csv")}, truths)


def plan_chains30(work: Path, cfg: str, seed: int, n_rounds: int, s: Scale) -> Plan:
    from smfdenoise.fileio import write_raster_csv
    from smfdenoise.synth import SynthConfig, generate_corpus

    pairs = generate_corpus(SynthConfig(n1=s.side, n2=s.side, n_images=n_rounds, seed=seed))
    rounds = []
    for r, pair in enumerate(pairs):
        image = work / f"noisy_{r}.csv"
        write_raster_csv(image, pair.noisy)
        rounds.append([
            {"kind": "diagnose", "tag": v, "images": s.chains,
             "argv": ["diagnose", "--input", str(image), "--chains", str(s.chains),
                      "--variant", v, "--config", cfg,
                      "--report", f"{{out}}/psrf_{{r}}_{v}.csv"]}
            for v in SAMPLERS])
    return Plan(rounds, {"raster": str(work / "noisy_0.csv")}, {})


@dataclass(frozen=True)
class Workload:
    plan: object
    # Seconds one round took at the commit that defined the benchmark (2-core
    # x86 container).  It sizes the pre-generated inputs and the traced run,
    # which runs a fixed number of rounds so that its counts repeat exactly;
    # its untraced and traced passes together take about 1.5 x --seconds.
    round_s: float


WORKLOADS = {
    "corpus30": Workload(plan_corpus30, 5.7),
    "frame64": Workload(plan_frame64, 11.0),
    "chains30": Workload(plan_chains30, 7.5),
}


# ---------------------------------------------------------------- workers


def _spawn(spec: dict, work: Path, tag: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns its set-up seconds and its results (None if set-up only)."""
    spec_path = work / f"spec_{tag}.json"
    spec = dict(spec, results=str(work / f"results_{tag}.json"),
                spans=str(work / f"spans_{tag}.json"))
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    log = work / "worker.log"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    with open(log, "a") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline().strip()
            setup_s = time.perf_counter() - t0
            proc.communicate()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready != "ready" or proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"worker {tag} failed (exit {proc.returncode}):\n{tail}")
    if spec["setup_only"]:
        return setup_s, None
    return setup_s, json.loads(Path(spec["results"]).read_text())


# ---------------------------------------------------------------- checks


class Tally:
    """Attempts and failures; a failure is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def _grid(path: Path) -> np.ndarray:
    return np.array([[float(t) for t in row] for row in _rows(path)])


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _check_bench(call, rec, path: Path, tally: Tally, stats: dict):
    rows = {}
    try:
        table = _rows(path)
        if table[0] != REPORT_HEADER.split(","):
            raise ValueError("bad header")
        for row in table[1:]:
            if row[0] != "mean":
                rows[(int(row[0]), row[1])] = [float(v) for v in row[2:]]
    except (OSError, ValueError, IndexError) as exc:
        rows = {}
        rec = dict(rec, error=f"{rec['error'] or ''} {exc}")
    for k in range(call["images"]):
        got = [rows.get((k, m)) for m in call["methods"]]
        ok = rec["rc"] == 0 and all(v is not None and len(v) == 5 and _finite(v) for v in got)
        tally.check(ok, f"{path.name}: image {k}: rc={rec['rc']} {rec['error'] or ''}")
        if ok:
            stats["images"] += 1
            stats["image_s"].append(sum(v[4] for v in got) / 1e3)
            for m, v in zip(call["methods"], got):
                stats["rmse"].setdefault(m, []).append(v[0])


def _check_denoise(call, rec, out: Path, r: int, truth, s: Scale, tally: Tally, stats: dict):
    v = call["tag"]
    try:
        mean = _grid(out / f"mean_{r}_{v}.csv")
        mask = _grid(out / f"mask_{r}_{v}.csv")
        trace = _rows(out / f"trace_{r}_{v}.csv")
        values = np.array([[float(t) for t in row] for row in trace[1:]])
        ok = (rec["rc"] == 0
              and mean.shape == truth.shape and _finite(mean)
              and mask.shape == truth.shape and bool(np.all((mask == 0) | (mask == 1)))
              and values.shape == (s.n_iter, 6) and _finite(values)
              and bool(np.all(values[:, 0] == np.arange(1, s.n_iter + 1)))
              and bool(np.all(values[:, 1:3] > 0)))
    except (OSError, ValueError, IndexError) as exc:
        ok = False
        rec = dict(rec, error=f"{rec['error'] or ''} {exc}")
    tally.check(ok, f"denoise round {r} {v}: rc={rec['rc']} {rec['error'] or ''}")
    if ok:
        stats["images"] += 1
        stats["image_s"].append(rec["seconds"])
        stats["rmse"].setdefault(v, []).append(float(np.sqrt(np.mean((mean - truth) ** 2))))


def _check_diagnose(call, rec, path: Path, tally: Tally, stats: dict):
    try:
        rows = {row[0]: row for row in _rows(path)[1:]}
        psrf = [float(rows[p][1]) for p in ("kappa_l", "kappa_f")]
        flags = [int(rows[p][2]) for p in ("kappa_l", "kappa_f")]
        ok = (rec["rc"] in (0, 5) and _finite(psrf) and min(psrf) > 0
              and set(flags) <= {0, 1} and (rec["rc"] == 0) == all(flags))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        ok = False
        rec = dict(rec, error=f"{rec['error'] or ''} {exc}")
    tally.check(ok, f"{path.name}: rc={rec['rc']} {rec['error'] or ''}")
    if ok:
        stats["images"] += call["images"]
        stats["image_s"].append(rec["seconds"] / call["images"])
        stats["call_s"].append(rec["seconds"])


def _new_stats() -> dict:
    return {"images": 0, "seconds": 0.0, "image_s": [], "call_s": [], "rmse": {}}


def check_outputs(plan: Plan, result: dict, out: Path, s: Scale, tally: Tally) -> dict:
    """Check every call's outputs; returns per-tag stats for the metrics."""
    stats = {}
    for rec in result["calls"]:
        r = rec["round"]
        call = plan.rounds[r % len(plan.rounds)][rec["index"]]
        st = stats.setdefault(call["tag"], _new_stats())
        st["seconds"] += rec["seconds"]
        if call["kind"] == "bench":
            _check_bench(call, rec, out / f"report_{r}_{call['tag']}.csv", tally, st)
        elif call["kind"] == "denoise":
            _check_denoise(call, rec, out, r, plan.truths[r % len(plan.rounds)], s, tally, st)
        else:
            _check_diagnose(call, rec, out / f"psrf_{r}_{call['tag']}.csv", tally, st)
    return stats


def check_reference(workload: str, stats: dict, tally: Tally):
    """Each method's mean RMSE within its Monte Carlo tolerance of the reference."""
    ref = json.loads((HERE / "reference.json").read_text())["rmse"].get(workload, {})
    for st in stats.values():
        for method, values in st["rmse"].items():
            if method not in ref:
                continue
            m = ref[method]
            tol = RMSE_Z * m["sd"] * math.sqrt(1 / len(values) + 1 / m["n"])
            mean = float(np.mean(values))
            tally.check(abs(mean - m["mean"]) <= tol,
                        f"{workload} {method}: mean RMSE {mean:.5f} vs reference "
                        f"{m['mean']:.5f} +- {tol:.5f} (n={len(values)})")


def _normalized(path: Path) -> bytes:
    """File bytes, minus the wall_ms column of bench reports (a timing)."""
    data = path.read_bytes()
    if not path.name.startswith("report_"):
        return data
    lines = data.decode().splitlines()
    return "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in lines).encode()


def compare_outputs(a: Path, b: Path, tally: Tally):
    """The traced run must write the same bytes as the untraced run."""
    names = sorted(p.name for p in a.iterdir())
    tally.check(names == sorted(p.name for p in b.iterdir()), "traced run wrote other files")
    for name in names:
        same = (b / name).exists() and _normalized(a / name) == _normalized(b / name)
        tally.check(same, f"traced output {name} differs from untraced")


# ---------------------------------------------------------------- metrics


def _tail(values) -> str:
    """Sample count, plus the highest of p90/p99 with >= 10 samples beyond it."""
    n = len(values)
    note = f"n={n}"
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return f"{note} p{q}={np.percentile(values, q):.4f}"
    return note


def end_to_end(workload: str, stats: dict, setups: list, result: dict, tally: Tally,
               chains: int) -> list:
    """Rows of (name, value, unit, note)."""
    def rate(st):
        return st["images"] / st["seconds"] if st["seconds"] else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    samplers = {v: stats.get(v) or _new_stats() for v in SAMPLERS}
    rows = [("setup_s", median(setups), "s", f"n={len(setups)}")]
    for v, st in samplers.items():
        rows.append((f"{v}_images_per_s", rate(st), "images/s", f"images={st['images']}"))
    for v, st in samplers.items():
        rows.append((f"{v}_image_s_p50", median(st["image_s"]), "s", _tail(st["image_s"])))
    if "baselines" in stats:
        st = stats["baselines"]
        rows.append(("baselines_images_per_s", rate(st), "images/s", f"images={st['images']}"))
    if workload == "chains30":
        calls = samplers["higmrf"]["call_s"]
        rows.append(("diagnose_s", median(calls), "s", f"n={len(calls)} chains={chains}"))
    for v, st in samplers.items():
        if st["rmse"].get(v):
            rows.append((f"{v}_rmse", float(np.mean(st["rmse"][v])), "intensity",
                         f"n={len(st['rmse'][v])}"))
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MB", "timed worker"))
    rows.append(("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
                 f"{tally.failed}/{tally.attempted}"))
    return rows


def per_layer(dump: dict, synth_s: float, res_a: dict, res_b: dict) -> list:
    rows = [(name, value, unit, "") for name, (value, unit) in tracing.summarize(dump).items()]
    rows += [
        ("synth.generate_s", synth_s, "s", "input generation, outside the timed phase"),
        ("process.cpu_util", res_a["cpu_s"] / res_a["wall_s"], "ratio", "untraced timed phase"),
        ("trace.overhead_s", res_b["wall_s"] - res_a["wall_s"], "s",
         f"traced {res_b['wall_s']:.3f} s - untraced {res_a['wall_s']:.3f} s"),
        ("trace.overhead_frac", (res_b["wall_s"] - res_a["wall_s"]) / res_a["wall_s"], "ratio", ""),
    ]
    return rows


# ---------------------------------------------------------------- entry point


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import scipy

    commit = "unknown"  # a checkout without .git, or no git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": NPROC,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "commit": commit}


def run_workload(name: str, seed: int, seconds: int, trace: bool, scale: Scale = PAPER,
                 setup_repeats: int = SETUP_REPEATS, corrupt=None) -> dict:
    """One benchmark run; returns the result with its metric rows."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[name]
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = work / "bench.cfg"
        cfg.write_text(f"T={scale.n_iter}\nburn_in={scale.n_iter // 2}\nseed={seed}\n")
        fixed = max(1, round(seconds / (1.5 * wl.round_s))) if trace else None
        n_rounds = fixed or max(1, math.ceil(INPUT_HEADROOM * seconds / wl.round_s))
        t0 = time.perf_counter()
        plan = wl.plan(work, str(cfg), seed, n_rounds, scale)
        synth_s = time.perf_counter() - t0
        spec = {"config": str(cfg), "setup": plan.setup, "rounds": plan.rounds,
                "seconds": seconds, "fixed_rounds": fixed, "setup_only": False, "trace": False}
        tally = Tally()
        out_a = work / "out_a"
        out_a.mkdir()
        if not trace:
            setups = [_spawn(dict(spec, setup_only=True), work, f"setup{i}", deadline)[0]
                      for i in range(setup_repeats)]
            setup_s, res = _spawn(dict(spec, out=str(out_a)), work, "timed", deadline)
            setups.append(setup_s)
        else:
            out_b = work / "out_b"
            out_b.mkdir()
            _, res = _spawn(dict(spec, out=str(out_a)), work, "untraced", deadline)
            _, res_b = _spawn(dict(spec, out=str(out_b), trace=True), work, "traced", deadline)
        if corrupt is not None:
            corrupt(out_a)
        stats = check_outputs(plan, res, out_a, scale, tally)
        if scale == PAPER:
            check_reference(name, stats, tally)
        if trace:
            compare_outputs(out_a, out_b, tally)
            dump = json.loads((work / "spans_traced.json").read_text())
            rows = per_layer(dump, synth_s, res, res_b)
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(dump))
        else:
            rows = end_to_end(name, stats, setups, res, tally, scale.chains)
        return {"rows": rows, "correct": tally.failed == 0, "attempted": tally.attempted,
                "failed": tally.failed, "messages": tally.messages, "rounds": res["rounds"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def final_line(result: dict, trace: bool) -> dict:
    """The contract's JSON object: exactly the metrics BENCHMARK.json lists."""
    got = {name: (value, unit) for name, value, unit, _ in result["rows"]}
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in listed["per_layer" if trace else "end_to_end"]:
        if m["name"] not in got or got[m["name"]][1] != m["unit"]:
            raise BenchError(f"metric {m['name']} [{m['unit']}] was not measured")
        metrics[m["name"]] = {"value": got[m["name"]][0], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _print_table(result: dict):
    for name, value, unit, note in result["rows"]:
        print(f"{name:32s} {value:>16.6g} {unit:10s} {note}")
    for msg in result["messages"]:
        print(f"FAILED: {msg}")


# ---------------------------------------------------------------- self-test


def _corrupter(name: str, pattern: str, repl: str):
    """Self-test corruption: one regex substitution in one output file."""
    def corrupt(out: Path):
        path = out / name
        path.write_text(re.sub(pattern, repl, path.read_text(), count=1, flags=re.M))
    return corrupt


CORRUPTIONS = {
    # drop image 1's row from a report
    "corpus30": _corrupter("report_0_higmrf.csv", r"^1,higmrf,.*\n", ""),
    # a non-finite pixel in a posterior mean
    "frame64": _corrupter("mean_0_higmrf.csv", r"^[^#][^,]*", "nan"),
    # a non-finite PSRF
    "chains30": _corrupter("psrf_0_higmrf.csv", r"^kappa_l,[^,]*", "kappa_l,nan"),
}


# Table-only metrics each workload must print, besides the BENCHMARK.json lists.
TABLE_ONLY = {
    ("corpus30", False): ("baselines_images_per_s", "higmrf_rmse", "igmrf_rmse", "failed_frac"),
    ("frame64", False): ("higmrf_rmse", "igmrf_rmse", "failed_frac"),
    ("chains30", False): ("diagnose_s", "failed_frac"),
    ("corpus30", True): ("baselines.ga_ms", "baselines.av_ms", "baselines.wi_ms",
                         "baselines.nlm_ms", "metrics.evaluate_ms", "bench.self_ms"),
    ("frame64", True): (),
    ("chains30", True): ("diagnostics.report_ms",),
}


def self_test() -> int:
    """Tiny inputs: every metric is printed with its unit, and a corrupted
    output is counted as failed."""
    problems = []
    for name in WORKLOADS:
        before = len(problems)
        for trace in (False, True):
            res = run_workload(name, 1, 0, trace, TINY, setup_repeats=1)
            printed = {row[0] for row in res["rows"]}
            missing = set(TABLE_ONLY[(name, trace)]) - printed
            if missing:
                problems.append(f"{name} trace={int(trace)}: not printed: {sorted(missing)}")
            try:
                line = final_line(res, trace)
            except BenchError as exc:
                problems.append(f"{name} trace={int(trace)}: {exc}")
                continue
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: {res['messages']}")
        bad = run_workload(name, 1, 0, False, TINY, setup_repeats=1,
                           corrupt=CORRUPTIONS[name])
        if bad["failed"] < 1 or bad["correct"]:
            problems.append(f"{name}: corrupted output not counted as failed")
        print(f"self-test {name}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "smfdenoise" / "cli.py").is_file():
        print(f"perfbench: no src/smfdenoise under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = final_line(result, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = dict(line, env=env, table=result["rows"], messages=result["messages"],
                  rounds=result["rounds"])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    _print_table(result)
    print("# env " + json.dumps(env))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
