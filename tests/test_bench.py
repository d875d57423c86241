"""Tests for the benchmark harness and its CSV report."""

import numpy as np
import pytest

from smfdenoise.baselines import FilterConfig
from smfdenoise.bench import (
    MissingExternalError,
    UnknownMethodError,
    read_corpus,
    run_bench,
    run_method,
    write_corpus,
    write_report,
)
from smfdenoise.fileio import write_raster_csv
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
    def test_all_builtin_methods_produce_rasters(self, small_corpus, fast_hp):
        noisy = small_corpus[0].noisy
        for m in ("ga", "av", "wi", "nlm", "igmrf", "higmrf"):
            out = run_method(m, noisy, fast_hp, FilterConfig())
            assert (out.n1, out.n2) == (noisy.n1, noisy.n2)

    def test_unknown_method_rejected(self, small_corpus, fast_hp):
        with pytest.raises(UnknownMethodError):
            run_method("median", small_corpus[0].noisy, fast_hp, FilterConfig())


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
        rows = run_bench(pairs, [f"external:{ext}"], fast_hp, FilterConfig())
        # external method returned the truth itself: zero error
        assert all(r.report.rmse < 1e-8 for r in rows)

    def test_missing_external_file_reported(self, tmp_path, small_corpus, fast_hp):
        pairs = [(p.truth, p.noisy) for p in small_corpus]
        ext = tmp_path / "ext"
        ext.mkdir()
        write_raster_csv(ext / "denoised_0.csv", small_corpus[0].truth)
        with pytest.raises(MissingExternalError) as err:
            run_bench(pairs, [f"external:{ext}"], fast_hp, FilterConfig())
        assert len(err.value.missing) == 2


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
