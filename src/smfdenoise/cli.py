"""Command-line front end.

Subcommands: synth (corpus generation), denoise, bench, diagnose.  Exit
codes: 0 ok, 2 usage or bad configuration, 3 I/O failure, 4 missing external
data, 5 not converged, 6 degenerate traces, 7 numerical failure in the sampler,
8 a quality metric undefined for a bench output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .config import ConfigError, effective_config_lines, load_config
from .diagnostics import (
    PSRF_THRESHOLD,
    DegenerateTraceError,
    TraceSet,
    convergence_report,
)
from .fileio import load_raster, write_raster_csv
from .lattice import Raster
from .metrics import MetricInstabilityError
from .model import SamplerNumericalError
from .sampler import HIGMRF, IGMRF, denoise
from .synth import CorpusError, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISSING = 4
EXIT_NOT_CONVERGED = 5
EXIT_DEGENERATE = 6
EXIT_NUMERICAL = 7
EXIT_METRIC = 8

# The exit code of each failure a command lets propagate; it is reported as
# one "smfdenoise:" line.  No class here subclasses another.
_EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    CorpusError: EXIT_USAGE,
    bench_mod.UnknownMethodError: EXIT_USAGE,
    bench_mod.MissingExternalError: EXIT_MISSING,
    DegenerateTraceError: EXIT_DEGENERATE,
    SamplerNumericalError: EXIT_NUMERICAL,
    MetricInstabilityError: EXIT_METRIC,
}


def _err(msg: str) -> None:
    print(f"smfdenoise: {msg}", file=sys.stderr)


def _load_configs(args):
    return load_config(args.config, {} if args.seed is None else {"seed": args.seed})


def cmd_synth(args) -> int:
    hp, fc, sc = _load_configs(args)
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        _err(f"output directory {out_dir} does not exist")
        return EXIT_IO
    pairs = generate_corpus(sc)
    try:
        bench_mod.write_corpus(out_dir, pairs, effective_config_lines(hp, fc, sc))
    except OSError as exc:
        _err(f"cannot write corpus: {exc}")
        return EXIT_IO
    print(f"wrote {len(pairs)} pairs to {out_dir}")
    return EXIT_OK


def _parse_crop(spec: str, n1: int, n2: int):
    try:
        r0, c0, h, w = (int(tok) for tok in spec.split(","))
    except ValueError:
        raise ValueError(f"crop must be r0,c0,h,w integers, got {spec!r}")
    if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > n1 or c0 + w > n2:
        raise ValueError(f"crop {spec!r} outside {n1}x{n2} raster")
    return r0, c0, h, w


def _too_small(y: Raster) -> bool:
    """The field prior couples pixel pairs; a lone pixel has none and would
    come back unchanged, so an input needs two pixels."""
    if y.n1 * y.n2 >= 2:
        return False
    _err(f"input is {y.n1}x{y.n2}; need at least 2 pixels")
    return True


def cmd_denoise(args) -> int:
    hp, fc, sc = _load_configs(args)
    try:
        y = load_raster(args.input)
    except (OSError, ValueError) as exc:
        _err(f"cannot read {args.input}: {exc}")
        return EXIT_IO
    if args.crop:
        try:
            r0, c0, h, w = _parse_crop(args.crop, y.n1, y.n2)
        except ValueError as exc:
            _err(str(exc))
            return EXIT_USAGE
        y = Raster.from_2d(y.to_2d()[r0:r0 + h, c0:c0 + w])
    if _too_small(y):
        return EXIT_USAGE
    result = denoise(y, hp, variant=args.variant)
    echo = effective_config_lines(hp, fc, sc) + [f"variant={args.variant}"]
    try:
        write_raster_csv(args.out_mean, result.posterior_mean, echo)
        write_raster_csv(
            args.out_mask,
            Raster(result.final_mask.n1, result.final_mask.n2,
                   result.final_mask.data.astype(float)),
            echo,
        )
        trace_lines = [f"# {c}" for c in echo]
        trace_lines.append("iteration,kappa_l,kappa_f,gamma1,gamma2,gamma3")
        for t in range(result.theta_trace.shape[0]):
            kl, kf = result.theta_trace[t]
            g1, g2, g3 = result.gamma_trace[t]
            trace_lines.append(
                f"{t + 1},{kl:.9g},{kf:.9g},{g1:.9g},{g2:.9g},{g3:.9g}"
            )
        Path(args.out_trace).write_text("\n".join(trace_lines) + "\n")
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_IO
    return EXIT_OK


def cmd_bench(args) -> int:
    hp, fc, sc = _load_configs(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        _err("no methods requested")
        return EXIT_USAGE
    try:
        pairs = bench_mod.read_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        _err(f"cannot read corpus: {exc}")
        return EXIT_IO
    rows = bench_mod.run_bench(pairs, methods, hp, fc)
    try:
        bench_mod.write_report(args.report, rows, methods,
                               effective_config_lines(hp, fc, sc))
    except OSError as exc:
        _err(f"cannot write report: {exc}")
        return EXIT_IO
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.chains < 2:
        _err("need at least 2 chains")
        return EXIT_USAGE
    hp, fc, sc = _load_configs(args)
    try:
        y = load_raster(args.input)
    except (OSError, ValueError) as exc:
        _err(f"cannot read {args.input}: {exc}")
        return EXIT_IO
    if _too_small(y):
        return EXIT_USAGE
    kl_traces = []
    kf_traces = []
    for c in range(args.chains):
        res = denoise(y, replace(hp, seed=hp.seed + c), variant=args.variant)
        post = res.theta_trace[hp.burn_in:]
        kl_traces.append(post[:, 0])
        kf_traces.append(post[:, 1])
    report = convergence_report({
        "kappa_l": TraceSet(np.array(kl_traces)),
        "kappa_f": TraceSet(np.array(kf_traces)),
    })
    lines = [f"# {c}" for c in effective_config_lines(hp, fc, sc)]
    lines.append(f"# chains={args.chains} variant={args.variant} threshold={PSRF_THRESHOLD}")
    lines.append("parameter,psrf,converged")
    for name, value in report.psrf_values.items():
        lines.append(f"{name},{value:.9g},{int(report.passed[name])}")
    try:
        Path(args.report).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        _err(f"cannot write report: {exc}")
        return EXIT_IO
    for name, value in report.psrf_values.items():
        print(f"{name}: PSRF={value:.4f} ({'ok' if report.passed[name] else 'NOT CONVERGED'})")
    return EXIT_OK if report.all_converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="smfdenoise",
                                description="Bayesian spot-image denoising toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # flags that several subcommands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--seed", type=int, default=None)
    raster = argparse.ArgumentParser(add_help=False)
    raster.add_argument("--input", required=True, help="CSV or 16-bit PGM raster")
    raster.add_argument("--variant", choices=[IGMRF, HIGMRF], default=HIGMRF)

    sp = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    sp.add_argument("--out", required=True, help="existing output directory")
    sp.set_defaults(func=cmd_synth)

    dp = sub.add_parser("denoise", parents=[common, raster], help="denoise one raster")
    dp.add_argument("--crop", default=None, metavar="R0,C0,H,W")
    dp.add_argument("--out-mean", required=True)
    dp.add_argument("--out-mask", required=True)
    dp.add_argument("--out-trace", required=True)
    dp.set_defaults(func=cmd_denoise)

    bp = sub.add_parser("bench", parents=[common], help="run methods over a corpus")
    bp.add_argument("--corpus", required=True)
    bp.add_argument("--methods", required=True,
                    help="comma list of ga,av,wi,nlm,igmrf,higmrf,external:<dir>")
    bp.add_argument("--report", required=True)
    bp.set_defaults(func=cmd_bench)

    gp = sub.add_parser("diagnose", parents=[common, raster],
                        help="multi-chain PSRF convergence check")
    gp.add_argument("--chains", type=int, default=4)
    gp.add_argument("--report", required=True)
    gp.set_defaults(func=cmd_diagnose)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        _err(str(exc))
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
