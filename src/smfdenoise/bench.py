"""Benchmark harness: corpus persistence, method dispatch and the CSV report."""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .baselines import FilterConfig
from .fileio import csv_text, format_csv_rows, format_number, read_raster_csv, write_raster_csv
from .lattice import Raster, pow2_scaled
from .model import HyperParams
from .pool import run_jobs
from .sampler import HIGMRF, IGMRF
from .synth import SynthPair

__all__ = [
    "UnknownMethodError",
    "MissingExternalError",
    "BenchRow",
    "write_corpus",
    "read_corpus",
    "read_external",
    "run_method",
    "run_bench",
    "write_report",
]

BASELINE_METHODS = ("ga", "av", "wi", "nlm")
SAMPLER_METHODS = (IGMRF, HIGMRF)

REPORT_COLUMNS = ("image", "method", "rmse", "psnr_db", "kld", "ssim", "wall_ms")


class UnknownMethodError(ValueError):
    pass


class MissingExternalError(FileNotFoundError):
    def __init__(self, method: str, missing: list[str]):
        super().__init__(f"method {method!r}: missing outputs: {', '.join(missing)}")
        self.missing = missing


@dataclass(frozen=True)
class BenchRow:
    image: int
    method: str
    report: metrics.MetricsReport
    wall_ms: float


def write_corpus(out_dir, pairs: list[SynthPair], config_lines: list[str]):
    """truth_k.csv / noisy_k.csv per pair plus manifest.csv."""
    out_dir = Path(out_dir)
    for k, pair in enumerate(pairs):
        write_raster_csv(out_dir / f"truth_{k}.csv", pair.truth, config_lines)
        write_raster_csv(out_dir / f"noisy_{k}.csv", pair.noisy, config_lines)
    lines = ["index,spot_count,centers,amplitudes,target_snr_db,realized_snr_db,seed"]
    for k, pair in enumerate(pairs):
        centers = ";".join(f"{format_number(s.row)}:{format_number(s.col)}" for s in pair.spots)
        amps = ";".join(format_number(s.amplitude) for s in pair.spots)
        lines.append(f"{k},{len(pair.spots)},{centers},{amps},{format_number(pair.target_snr_db)},"
                     f"{format_number(pair.realized_snr_db)},{pair.image_seed}")
    (out_dir / "manifest.csv").write_text(csv_text(config_lines, lines))


def read_corpus(corpus_dir) -> list[tuple[Raster, Raster]]:
    """(truth, noisy) pairs per the manifest in corpus_dir, each pair on one
    lattice.  The manifest lists images 0..N-1, each once: the k-th pair is
    image k to ``run_bench``, ``read_external`` and the report."""
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.csv in {corpus_dir}")
    indices = []
    for number, line in enumerate(manifest.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("index,"):
            continue
        field = line.split(",", 1)[0]
        try:
            indices.append(int(field))
        except ValueError:
            raise ValueError(f"{manifest}, line {number}: image index {field!r} "
                             "is not an integer") from None
    if not indices:
        raise ValueError(f"{manifest} lists no images")
    indices.sort()
    for k, index in enumerate(indices):
        if index != k:
            raise ValueError(f"{manifest} lists image {index} where image {k} belongs: "
                             f"its indices must be 0..{len(indices) - 1}, each once")
    pairs = [(read_raster_csv(corpus_dir / f"truth_{k}.csv"),
              read_raster_csv(corpus_dir / f"noisy_{k}.csv")) for k in indices]
    for k, (truth, noisy) in zip(indices, pairs):
        if (truth.n1, truth.n2) != (noisy.n1, noisy.n2):
            raise ValueError(f"{corpus_dir}: truth_{k}.csv is {truth.n1}x{truth.n2}, "
                             f"noisy_{k}.csv {noisy.n1}x{noisy.n2}")
    return pairs


def run_method(method: str, noisy: Raster, fc: FilterConfig) -> Raster:
    """Denoise one raster with a named baseline method.  The sampler methods
    run as chains, through ``pool.run_jobs``."""
    if method == "ga":
        return baselines.gaussian_filter(noisy, fc.gaussian_sigma, fc.gaussian_size)
    if method == "av":
        return baselines.average_filter(noisy, fc.average_size)
    if method == "wi":
        return baselines.wiener_filter(noisy, fc.wiener_size)
    if method == "nlm":
        return baselines.nlm_filter(noisy, fc.nlm_patch, fc.nlm_search, fc.nlm_h)
    raise UnknownMethodError(f"unknown method {method!r}")


def read_external(method: str, truths: list[Raster]) -> list[Raster]:
    """The outputs of method ``external:DIR``: DIR/denoised_<k>.csv for each
    truth k, each of its truth's shape."""
    ext_dir = Path(method.split(":", 1)[1])
    paths = [ext_dir / f"denoised_{k}.csv" for k in range(len(truths))]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise MissingExternalError(method, missing)
    outputs = [read_raster_csv(p) for p in paths]
    for path, out, truth in zip(paths, outputs, truths):
        if (out.n1, out.n2) != (truth.n1, truth.n2):
            raise ValueError(f"{path} is {out.n1}x{out.n2}, its truth {truth.n1}x{truth.n2}")
    return outputs


def run_bench(pairs: list[tuple[Raster, Raster]], methods: list[str],
              hp: HyperParams, fc: FilterConfig,
              external: dict[str, list[Raster]] | None = None) -> list[BenchRow]:
    """Every requested method over every (truth, noisy) pair.  ``external``
    holds the outputs of each ``external:`` method, as ``read_external``
    reads them; a method that is neither there nor built in raises
    ``UnknownMethodError`` before any method runs.

    The ``higmrf`` and ``igmrf`` images are independent chains, so they run
    through ``pool.run_jobs``, submitted before the first row, while
    baselines and metrics run here.  A row's ``wall_ms`` is its own method's
    time on its image; a sampler row's is its chain's ``wall_ms``, taken in
    the process that ran it, so under concurrency it includes the waits for
    a core but not the waits for a worker.  The first failure in (image,
    method) order is the one raised, as in a serial loop, and no chain is
    left behind on the pool.
    """
    external = external or {}
    for method in methods:
        if method not in (*BASELINE_METHODS, *SAMPLER_METHODS, *external):
            raise UnknownMethodError(f"unknown method {method!r}")
    chains = run_jobs([(noisy, hp, method) for _, noisy in pairs
                       for method in methods if method in SAMPLER_METHODS])
    rows = []
    with closing(chains):
        for k, (truth, noisy) in enumerate(pairs):
            for method in methods:
                if method in SAMPLER_METHODS:
                    chain = next(chains)
                    estimate, wall_ms = chain.posterior_mean, chain.wall_ms
                elif method in external:
                    estimate, wall_ms = external[method][k], 0.0
                else:
                    t0 = time.perf_counter()
                    estimate = run_method(method, noisy, fc)
                    wall_ms = (time.perf_counter() - t0) * 1e3
                rows.append(BenchRow(image=k, method=method,
                                     report=metrics.evaluate(estimate, truth), wall_ms=wall_ms))
    return rows


def write_report(path, rows: list[BenchRow], methods: list[str],
                 config_lines: list[str]):
    """Per-image rows, then one mean row per method; standard deviations go
    into structured comment lines so the column contract stays fixed.  All
    three come from one table, a row of numbers per image and method.

    A PSNR is infinite when an estimate equals its truth.  Its method's mean
    PSNR is then ``inf``, and its standard deviation, undefined, is ``nan``.
    """
    rows = sorted(rows, key=lambda r: (r.image, methods.index(r.method)))
    table = np.array([[r.report.rmse, r.report.psnr_db, r.report.kld, r.report.ssim, r.wall_ms]
                      for r in rows])
    means, stds = [], []
    for method in methods:
        cols = table[[r.method == method for r in rows]]
        means.append(cols.mean(axis=0))
        # std would subtract inf from inf and warn; such a column is nan here.
        # It squares deviations, so it runs on each column divided by its
        # own power of two and is scaled back
        finite = np.isfinite(cols).all(axis=0)
        std = np.full(cols.shape[1], np.nan)
        scaled, e = pow2_scaled(cols[:, finite], axis=0)
        std[finite] = np.ldexp(scaled.std(axis=0), e)
        stds.append(std[:4])
    lines = [",".join(REPORT_COLUMNS)]
    lines += [f"{r.image},{r.method},{t}" for r, t in zip(rows, format_csv_rows(table))]
    lines += [f"mean,{m},{t}" for m, t in zip(methods, format_csv_rows(np.array(means)))]
    lines += [f"# std,{m},{t}" for m, t in zip(methods, format_csv_rows(np.array(stds)))]
    Path(path).write_text(csv_text(config_lines, lines))
