"""Tests for the benchmark harness and its CSV report."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from smfdenoise import bench, sampler
from smfdenoise.baselines import FilterConfig
from smfdenoise.bench import (
    MissingExternalError,
    UnknownMethodError,
    read_corpus,
    read_external,
    run_bench,
    run_method,
    write_corpus,
    write_report,
)
from smfdenoise.fileio import write_raster_csv
from smfdenoise.lattice import Raster, SpotMask
from smfdenoise.model import HyperParams
from smfdenoise.synth import SynthConfig, generate_corpus


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SynthConfig(n_images=3, n1=12, n2=12, seed=6))


@pytest.fixture(scope="module")
def fast_hp():
    return HyperParams(n_iter=10, burn_in=5, window=9)


class TestCorpusIo:
    def test_write_read_round_trip(self, tmp_path, small_corpus):
        write_corpus(tmp_path, small_corpus, ["seed=6"])
        pairs = read_corpus(tmp_path)
        assert len(pairs) == 3
        for (truth, noisy), p in zip(pairs, small_corpus):
            np.testing.assert_allclose(truth.data, p.truth.data, rtol=1e-8)
            np.testing.assert_allclose(noisy.data, p.noisy.data, rtol=1e-8)

    def test_manifest_lists_every_image(self, tmp_path, small_corpus):
        write_corpus(tmp_path, small_corpus, [])
        lines = [
            l for l in (tmp_path / "manifest.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("index,")
        ]
        assert [int(l.split(",")[0]) for l in lines] == [0, 1, 2]

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_corpus(tmp_path)


class TestRunMethod:
    def test_all_builtin_methods_produce_rasters(self, small_corpus):
        noisy = small_corpus[0].noisy
        for m in ("ga", "av", "wi", "nlm"):
            out = run_method(m, noisy, FilterConfig())
            assert (out.n1, out.n2) == (noisy.n1, noisy.n2)

    def test_unknown_method_rejected(self, small_corpus):
        with pytest.raises(UnknownMethodError):
            run_method("median", small_corpus[0].noisy, FilterConfig())


class TestRunBench:
    def test_rows_cover_grid(self, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        rows = run_bench(pairs, ["ga", "wi"], fast_hp, FilterConfig())
        assert len(rows) == 6
        assert {(r.image, r.method) for r in rows} == {
            (i, m) for i in range(3) for m in ("ga", "wi")
        }

    def test_unknown_method_detected_up_front(self, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        with pytest.raises(UnknownMethodError):
            run_bench(pairs, ["ga", "sorcery"], fast_hp, FilterConfig())

    def test_external_outputs_consumed(self, tmp_path, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        ext = tmp_path / "ext"
        ext.mkdir()
        for k, p in enumerate(small_corpus):
            write_raster_csv(ext / f"denoised_{k}.csv", p.truth)
        method = f"external:{ext}"
        outputs = read_external(method, [truth for truth, _ in pairs])
        rows = run_bench(pairs, [method], fast_hp, FilterConfig(), {method: outputs})
        # external method returned the truth itself: zero error
        assert all(r.report.rmse < 1e-8 for r in rows)

    def test_missing_external_file_reported(self, tmp_path, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        ext = tmp_path / "ext"
        ext.mkdir()
        write_raster_csv(ext / "denoised_0.csv", small_corpus[0].truth)
        with pytest.raises(MissingExternalError) as err:
            read_external(f"external:{ext}", [truth for truth, _ in pairs])
        assert len(err.value.missing) == 2
        # run_bench reads no outputs itself: an external method it was not
        # given is unknown to it
        with pytest.raises(UnknownMethodError):
            run_bench(pairs, [f"external:{ext}"], fast_hp, FilterConfig())


class TestPooledBench:
    """``run_bench`` runs its sampler images on the chain pool and keeps
    baselines and metrics here."""

    def test_pooled_rows_equal_serial_rows(self, small_corpus, fast_hp, monkeypatch):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        methods = ["ga", "higmrf", "wi", "igmrf"]
        pooled = run_bench(pairs, methods, fast_hp, FilterConfig())
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        serial = run_bench(pairs, methods, fast_hp, FilterConfig())
        assert [(r.image, r.method) for r in pooled] == [
            (k, m) for k in range(3) for m in methods]
        assert [(r.image, r.method, r.report) for r in pooled] == [
            (r.image, r.method, r.report) for r in serial]
        assert all(r.wall_ms > 0 for r in pooled)
        assert all(r.wall_ms > 0 for r in serial)

    @pytest.fixture
    def stub(self, monkeypatch, tmp_path):
        """Replace ``denoise`` for the sampler images, which the workers
        inherit: image k's noisy raster holds the value k.  Each call logs
        its image and process to a file, then behaves as ``behave(k)``
        says."""
        log = tmp_path / "calls"

        def stub(behave):
            def fake(noisy, hp, variant):
                k = int(noisy.data[0])
                with open(log, "a") as f:
                    f.write(f"{k} {os.getpid()}\n")
                behave(k)
                return sampler.DenoiseResult(noisy, SpotMask.zeros(noisy.n1, noisy.n2),
                                             np.zeros((0, 2)), np.zeros((0, 3)), wall_ms=1.0)
            monkeypatch.setattr(sampler, "denoise", fake)
            return log
        return stub

    @staticmethod
    def pairs(n):
        return [(Raster(2, 2, [k + 0.5, k + 2.0, k + 1.0, k + 3.5]),
                 Raster(2, 2, [k, k + 2.5, k + 1.5, k + 3.0])) for k in range(n)]

    @staticmethod
    def logged(log):
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    def test_second_call_reuses_the_workers(self, stub, fast_hp):
        log = stub(lambda k: None)
        run_bench(self.pairs(4), ["higmrf", "igmrf"], fast_hp, FilterConfig())
        workers = {p.pid for p in multiprocessing.active_children()}
        run_bench(self.pairs(4), ["igmrf"], fast_hp, FilterConfig())
        assert {p.pid for p in multiprocessing.active_children()} == workers
        pids = {pid for _, pid in self.logged(log)}
        assert pids <= workers and os.getpid() not in pids

    def test_igmrf_alone_builds_no_pool(self, stub, fast_hp):
        log = stub(lambda k: None)
        run_bench(self.pairs(4), ["igmrf"], fast_hp, FilterConfig())
        assert multiprocessing.active_children() == []
        assert self.logged(log) == [(k, os.getpid()) for k in range(4)]

    def test_sampler_images_start_before_the_first_row(self, stub, fast_hp, monkeypatch):
        log = stub(lambda k: None)
        run_method = bench.run_method
        waited = []

        def baseline_waits_for_a_chain(method, noisy, fc):
            if method == "ga":
                deadline = time.monotonic() + 5.0
                while not log.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                waited.append(log.exists())
            return run_method(method, noisy, fc)
        monkeypatch.setattr(bench, "run_method", baseline_waits_for_a_chain)
        run_bench(self.pairs(4), ["ga", "higmrf"], fast_hp, FilterConfig())
        # image 0's baseline comes first, yet a chain ran meanwhile
        assert waited == [True] * 4

    def test_earliest_failure_is_raised(self, stub, fast_hp):
        def behave(k):
            if k == 1:
                time.sleep(0.3)  # image 2 fails first in time
            if k in (1, 2):
                raise RuntimeError(f"image {k} failed")
        stub(behave)
        with pytest.raises(RuntimeError, match="^image 1 failed$"):
            run_bench(self.pairs(4), ["higmrf"], fast_hp, FilterConfig())

    def test_failed_call_leaves_no_jobs_behind(self, stub, fast_hp):
        def behave(k):
            if k == 0:
                raise RuntimeError("image 0 failed")
            time.sleep(0.2)
        log = stub(behave)
        with pytest.raises(RuntimeError, match="^image 0 failed$"):
            run_bench(self.pairs(12), ["higmrf"], fast_hp, FilterConfig())
        started = self.logged(log)
        time.sleep(0.5)
        assert self.logged(log) == started
        assert len(started) < 12


class TestReport:
    def test_layout_and_aggregates(self, tmp_path, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        methods = ["ga", "av"]
        rows = run_bench(pairs, methods, fast_hp, FilterConfig())
        path = tmp_path / "report.csv"
        write_report(path, rows, methods, ["seed=6"])
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "image,method,rmse,psnr_db,kld,ssim,wall_ms"
        # 6 per-image rows then one mean row per method
        assert len(data) == 1 + 6 + 2
        assert data[-2].startswith("mean,ga,")
        assert data[-1].startswith("mean,av,")
        std_lines = [l for l in lines if l.startswith("# std,")]
        assert len(std_lines) == 2
        mean_rmse = float(data[-2].split(",")[2])
        ga_rmse = np.mean([r.report.rmse for r in rows if r.method == "ga"])
        assert abs(mean_rmse - ga_rmse) < 1e-9

    # a warning would reach the user's stderr on a successful run
    @pytest.mark.filterwarnings("error")
    def test_exact_estimate_gives_inf_mean_and_nan_std_psnr(self, tmp_path, small_corpus,
                                                            fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        # image 0 is scored against itself, so its PSNR is inf
        outputs = [pairs[0][0]] + [noisy for _, noisy in pairs[1:]]
        rows = run_bench(pairs, ["external:x"], fast_hp, FilterConfig(),
                         {"external:x": outputs})
        path = tmp_path / "report.csv"
        write_report(path, rows, ["external:x"], [])
        lines = path.read_text().splitlines()
        mean = next(l for l in lines if l.startswith("mean,")).split(",")[2:]
        std = next(l for l in lines if l.startswith("# std,")).split(",")[2:]
        assert mean[1] == "inf" and std[1] == "nan"
        assert all(np.isfinite(float(v)) for v in mean[:1] + mean[2:] + std[:1] + std[2:])
