"""Outside-in tracing of smfdenoise.

``install`` replaces module-level names that the package looks up at call
time (``smfdenoise.sampler.splu``, ``smfdenoise.cli.load_config``, ...) with
wrappers that record spans, so no file of the package changes.  Spans stay in
memory as ``[name, start, end, parent, image]`` rows and are written out when
the worker ends.  ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import os
import pathlib
import time
from contextlib import contextmanager

import numpy as np

# Per-sweep spans: enough calls on every workload for a p90 with >= 10
# samples beyond it.
SWEEP_TIMERS = ("sampler.factor", "sampler.solve", "sampler.assemble", "lattice.q_build")
CALL_TIMERS = ("sampler.gamma", "sampler.kappas", "sampler.mask",
               "fileio.read", "fileio.write", "config.load")
# Layers that only some workloads run; reported in the table, not per_layer.
OPTIONAL_TIMERS = ("baselines.ga", "baselines.av", "baselines.wi", "baselines.nlm",
                   "metrics.evaluate", "bench.self", "diagnostics.report")


class Tracer:
    """Span store plus the counters that are measured where the work happens."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._image: int | None = None
        self._next_image = 0
        self._prev_mask: np.ndarray | None = None
        self.fills: list[float] = []
        self.spot_fracs: list[float] = []
        self.flip_fracs: list[float] = []
        self.bytes_read = 0
        self.bytes_written = 0

    @contextmanager
    def span(self, name: str, new_image: bool = False):
        outer_image = self._image
        if new_image:
            self._image = self._next_image
            self._next_image += 1
            self._prev_mask = None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), None, parent, self._image]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
            self._image = outer_image

    def record_mask(self, mask_data: np.ndarray):
        self.spot_fracs.append(float(mask_data.mean()))
        if self._prev_mask is not None:
            self.flip_fracs.append(float(np.count_nonzero(mask_data != self._prev_mask))
                                   / mask_data.size)
        self._prev_mask = mask_data.copy()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "fills": self.fills,
            "spot_fracs": self.spot_fracs,
            "flip_fracs": self.flip_fracs,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class _TimedLU:
    """Proxy for a SuperLU object whose ``solve`` is timed."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("sampler.solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _wrap(module, attr: str, tracer: Tracer, name: str, new_image: bool = False):
    orig = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name, new_image):
            return orig(*args, **kwargs)

    setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap every traced name and return the tracer that records them."""
    from smfdenoise import baselines, bench, cli, fileio, metrics, sampler

    tr = Tracer()

    orig_splu = sampler.splu

    def splu(a, *args, **kwargs):
        with tr.span("sampler.factor"):
            lu = orig_splu(a, *args, **kwargs)
        # own span, so the fill bookkeeping is not billed to assembly
        with tr.span("trace.fill"):
            tr.fills.append((lu.L.nnz + lu.U.nnz - a.shape[0]) / a.nnz)
        return _TimedLU(lu, tr)

    sampler.splu = splu

    orig_mask = sampler.get_binary_image

    def get_binary_image(*args, **kwargs):
        with tr.span("sampler.mask"):
            mask = orig_mask(*args, **kwargs)
        tr.record_mask(mask.data)
        return mask

    sampler.get_binary_image = get_binary_image

    _wrap(sampler, "sample_field_given_gamma", tr, "sampler.field")
    _wrap(sampler, "sample_gamma", tr, "sampler.gamma")
    _wrap(sampler, "sample_kappas", tr, "sampler.kappas")
    _wrap(sampler, "build_higmrf_precision", tr, "lattice.q_build")
    _wrap(sampler, "build_igmrf_precision", tr, "lattice.q_build")
    _wrap(cli, "denoise", tr, "sampler.denoise", new_image=True)
    _wrap(bench, "run_method", tr, "bench.run_method", new_image=True)
    _wrap(bench, "run_bench", tr, "bench.run_bench")
    _wrap(baselines, "gaussian_filter", tr, "baselines.ga")
    _wrap(baselines, "average_filter", tr, "baselines.av")
    _wrap(baselines, "wiener_filter", tr, "baselines.wi")
    _wrap(baselines, "nlm_filter", tr, "baselines.nlm")
    _wrap(metrics, "evaluate", tr, "metrics.evaluate")
    _wrap(cli, "load_config", tr, "config.load")
    _wrap(cli, "convergence_report", tr, "diagnostics.report")

    def sized_read(orig):
        def read(path, *args, **kwargs):
            with tr.span("fileio.read"):
                out = orig(path, *args, **kwargs)
            tr.bytes_read += os.path.getsize(path)
            return out
        return read

    fileio.read_raster_csv = sized_read(fileio.read_raster_csv)
    fileio.read_pgm16 = sized_read(fileio.read_pgm16)
    bench.read_raster_csv = sized_read(bench.read_raster_csv)

    orig_write = cli.write_raster_csv

    def write_raster_csv(path, *args, **kwargs):
        with tr.span("fileio.write"):
            orig_write(path, *args, **kwargs)
        tr.bytes_written += os.path.getsize(path)

    cli.write_raster_csv = write_raster_csv

    class TracedPath(type(pathlib.Path())):
        """Path whose whole-file text reads and writes are fileio spans."""

        def read_text(self, *args, **kwargs):
            with tr.span("fileio.read"):
                text = super().read_text(*args, **kwargs)
            tr.bytes_read += len(text.encode())
            return text

        def write_text(self, data, *args, **kwargs):
            with tr.span("fileio.write"):
                n = super().write_text(data, *args, **kwargs)
            tr.bytes_written += len(data.encode())
            return n

    # reports, traces and manifests go through Path in cli and bench
    cli.Path = TracedPath
    bench.Path = TracedPath
    return tr


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def summarize(dump: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced worker's dump."""
    spans = dump["spans"]
    dur = np.array([(row[2] - row[1]) * 1e3 for row in spans])
    child = np.zeros(len(spans))
    for row, d in zip(spans, dur):
        if row[3] >= 0:
            child[row[3]] += d
    times: dict[str, list[float]] = {}
    for row, d, c in zip(spans, dur, child):
        name = row[0]
        times.setdefault(name, []).append(d)
        # a layer's self time: its span minus the spans it caused
        if name == "sampler.field":
            times.setdefault("sampler.assemble", []).append(d - c)
        elif name == "bench.run_bench":
            times.setdefault("bench.self", []).append(d - c)

    out: dict[str, tuple[float, str]] = {}
    for name in SWEEP_TIMERS + CALL_TIMERS + OPTIONAL_TIMERS:
        vals = times.get(name, [])
        if name in OPTIONAL_TIMERS and not vals:
            continue
        out[f"{name}_ms"] = (_percentile(vals, 50), "ms")
        if name in SWEEP_TIMERS:
            out[f"{name}_ms_p90"] = (_percentile(vals, 90), "ms")
        out[f"{name}_ms_total"] = (float(np.sum(vals)), "ms")
    count = {name: len(v) for name, v in times.items()}
    out["sampler.sweeps"] = (count.get("sampler.field", 0), "count")
    out["sampler.factor_fill"] = (float(np.mean(dump["fills"])) if dump["fills"] else 0.0,
                                  "ratio")
    out["lattice.q_builds"] = (count.get("lattice.q_build", 0), "count")
    flips = np.array(dump["flip_fracs"])
    out["lattice.mask_unchanged_frac"] = (float(np.mean(flips == 0)) if flips.size else 0.0,
                                          "ratio")
    out["lattice.mask_flip_frac"] = (float(flips.mean()) if flips.size else 0.0, "ratio")
    out["lattice.spot_frac"] = (float(np.mean(dump["spot_fracs"]))
                                if dump["spot_fracs"] else 0.0, "ratio")
    out["fileio.reads"] = (count.get("fileio.read", 0), "count")
    out["fileio.writes"] = (count.get("fileio.write", 0), "count")
    out["fileio.bytes_read"] = (dump["bytes_read"], "bytes")
    out["fileio.bytes_written"] = (dump["bytes_written"], "bytes")
    out["config.loads"] = (count.get("config.load", 0), "count")
    out["baselines.calls"] = (sum(count.get(f"baselines.{m}", 0)
                                  for m in ("ga", "av", "wi", "nlm")), "count")
    out["metrics.evaluate_calls"] = (count.get("metrics.evaluate", 0), "count")
    out["diagnostics.report_calls"] = (count.get("diagnostics.report", 0), "count")
    out["cli.calls"] = (count.get("cli.main", 0), "count")
    return out
