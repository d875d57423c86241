"""Command-line front end.

Subcommands: synth (corpus generation), denoise, bench, diagnose.  A command
raises on failure; ``main`` maps the exception to its exit code through one
table and prints one "smfdenoise:" line on stderr.  Exit codes:

  0 success
  2 usage or bad configuration (an input under 2 pixels, a bad crop, too few
    chains or post-burn-in draws, an unknown or repeated method, a corpus
    that cannot be generated)
  3 a config, input, corpus or external-output file that cannot be read or
    parsed, or an output that cannot be written
  4 missing external outputs
  5 not converged
  6 degenerate traces
  7 numerical failure in the sampler
  8 a quality metric undefined for a bench output
  9 a chain pool worker died mid-run (say, killed by the out-of-memory killer)
 10 out of memory: a run whose arrays cannot be allocated
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
from contextlib import contextmanager
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
from .fileio import format_csv_rows, load_raster, write_raster_csv
from .lattice import Raster
from .metrics import MetricInstabilityError
from .model import SamplerNumericalError
from .pool import run_chains
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
EXIT_WORKER_LOST = 9
EXIT_MEMORY = 10


class UsageError(Exception):
    """A command-line value the command cannot run with."""


class FileError(Exception):
    """A file named on the command line cannot be read or written."""


# The exit code of each failure a command lets propagate; it is reported as
# one "smfdenoise:" line.  No class here subclasses another.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    ConfigError: EXIT_USAGE,
    CorpusError: EXIT_USAGE,
    bench_mod.UnknownMethodError: EXIT_USAGE,
    FileError: EXIT_IO,
    bench_mod.MissingExternalError: EXIT_MISSING,
    DegenerateTraceError: EXIT_DEGENERATE,
    SamplerNumericalError: EXIT_NUMERICAL,
    MetricInstabilityError: EXIT_METRIC,
    # the base class of BrokenProcessPool, which would load multiprocessing
    concurrent.futures.BrokenExecutor: EXIT_WORKER_LOST,
    MemoryError: EXIT_MEMORY,
}


@contextmanager
def _files(action: str):
    """Raise a failure to ``action`` a file as FileError; a failure with its
    own exit code (a bad config key, missing external outputs) passes."""
    try:
        yield
    except tuple(_EXIT_CODES):
        raise
    except (OSError, ValueError) as exc:
        raise FileError(f"cannot {action}: {exc}") from exc


def _load_configs(args):
    with _files(f"read config {args.config}"):
        return load_config(args.config, {} if args.seed is None else {"seed": args.seed})


def _read_input(path: str, crop: str | None = None) -> Raster:
    """The input raster, cut to the R0,C0,H,W window ``crop``.  The field
    prior couples pixel pairs; a lone pixel has none and would come back
    unchanged, so the result needs two pixels."""
    with _files(f"read {path}"):
        y = load_raster(path)
    if crop:
        try:
            r0, c0, h, w = (int(tok) for tok in crop.split(","))
        except ValueError:
            raise UsageError(f"crop must be r0,c0,h,w integers, got {crop!r}") from None
        if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > y.n1 or c0 + w > y.n2:
            raise UsageError(f"crop {crop!r} outside {y.n1}x{y.n2} raster")
        y = Raster.from_2d(y.to_2d()[r0:r0 + h, c0:c0 + w])
    if y.n1 * y.n2 < 2:
        raise UsageError(f"input is {y.n1}x{y.n2}; need at least 2 pixels")
    return y


def cmd_synth(args) -> int:
    hp, fc, sc = _load_configs(args)
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        raise FileError(f"output directory {out_dir} does not exist")
    pairs = generate_corpus(sc)
    with _files("write corpus"):
        bench_mod.write_corpus(out_dir, pairs, effective_config_lines(hp, fc, sc))
    print(f"wrote {len(pairs)} pairs to {out_dir}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    hp, fc, sc = _load_configs(args)
    y = _read_input(args.input, args.crop)
    result = denoise(y, hp, variant=args.variant)
    echo = effective_config_lines(hp, fc, sc) + [f"variant={args.variant}"]
    trace_lines = [f"# {c}" for c in echo]
    trace_lines.append("iteration,kappa_l,kappa_f,gamma1,gamma2,gamma3")
    rows = format_csv_rows(np.hstack([result.theta_trace, result.gamma_trace]))
    trace_lines += [f"{t},{row}" for t, row in enumerate(rows, start=1)]
    with _files("write outputs"):
        write_raster_csv(args.out_mean, result.posterior_mean, echo)
        write_raster_csv(args.out_mask, result.final_mask, echo)
        Path(args.out_trace).write_text("\n".join(trace_lines) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    hp, fc, sc = _load_configs(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods requested")
    if len(set(methods)) < len(methods):
        raise UsageError(f"a method is repeated in {args.methods!r}")
    with _files("read corpus"):
        pairs = bench_mod.read_corpus(args.corpus)
    with _files("read external outputs"):
        external = {m: bench_mod.read_external(m, [truth for truth, _ in pairs])
                    for m in methods if m.startswith("external:")}
    rows = bench_mod.run_bench(pairs, methods, hp, fc, external)
    with _files("write report"):
        bench_mod.write_report(args.report, rows, methods,
                               effective_config_lines(hp, fc, sc))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.chains < 2:
        raise UsageError("need at least 2 chains")
    hp, fc, sc = _load_configs(args)
    # PSRF needs two post-burn-in draws per chain
    if hp.n_iter - hp.burn_in < 2:
        raise UsageError(f"need T - burn_in >= 2, got T={hp.n_iter}, burn_in={hp.burn_in}")
    y = _read_input(args.input)
    # (chains, 2, post-burn-in draws): kappa_l and kappa_f per chain
    post = np.array([result.theta_trace[hp.burn_in:].T
                     for result in run_chains(y, hp, args.variant, args.chains)])
    report = convergence_report({"kappa_l": TraceSet(post[:, 0]),
                                 "kappa_f": TraceSet(post[:, 1])})
    lines = [f"# {c}" for c in effective_config_lines(hp, fc, sc)]
    lines.append(f"# chains={args.chains} variant={args.variant} threshold={PSRF_THRESHOLD}")
    lines.append("parameter,psrf,converged")
    for name, value in report.psrf_values.items():
        lines.append(f"{name},{value:.9g},{int(report.passed[name])}")
    with _files("write report"):
        Path(args.report).write_text("\n".join(lines) + "\n")
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
        print(f"smfdenoise: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
