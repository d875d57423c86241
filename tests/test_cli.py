"""End-to-end tests of the command-line interface and its exit codes."""

import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import smfdenoise
from smfdenoise import bench, cli, sampler
from smfdenoise.cli import (
    EXIT_IO,
    EXIT_MEMORY,
    EXIT_METRIC,
    EXIT_MISSING,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER_LOST,
    main,
)
from smfdenoise.fileio import read_raster_csv, write_raster_csv
from smfdenoise.lattice import Raster


FAST_CFG = "T=10\nburn_in=5\nwindow=9\nn_images=2\nn1=12\nn2=12\n"


def one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("smfdenoise: ")


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


@pytest.fixture()
def noisy_csv(tmp_path):
    rng = np.random.default_rng(60)
    x = np.zeros((12, 12))
    x[6, 6] = 1.0
    x += 0.05 * rng.standard_normal((12, 12))
    path = tmp_path / "noisy.csv"
    write_raster_csv(path, Raster.from_2d(x))
    return str(path)


class TestConfigFile:
    @pytest.fixture(params=["synth", "denoise", "bench", "diagnose"])
    def argv(self, request, tmp_path, noisy_csv):
        out = str(tmp_path / "out")
        return {
            "synth": ["synth", "--out", str(tmp_path)],
            "denoise": ["denoise", "--input", noisy_csv, "--out-mean", out,
                        "--out-mask", out, "--out-trace", out],
            "bench": ["bench", "--corpus", str(tmp_path), "--methods", "ga",
                      "--report", out],
            "diagnose": ["diagnose", "--input", noisy_csv, "--report", out],
        }[request.param]

    def test_missing_config_is_io_error(self, tmp_path, argv, capsys):
        rc = main(argv + ["--config", str(tmp_path / "ghost.cfg")])
        assert rc == EXIT_IO
        assert one_error_line(capsys)

    def test_non_utf8_config_is_io_error(self, tmp_path, argv, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("T=10  # caf\u00e9\n".encode("latin-1"))
        assert main(argv + ["--config", str(cfg)]) == EXIT_IO
        assert one_error_line(capsys)


class TestSynth:
    def test_writes_corpus(self, tmp_path, fast_cfg):
        out = tmp_path / "corpus"
        out.mkdir()
        rc = main(["synth", "--config", fast_cfg, "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "manifest.csv").exists()
        assert (out / "noisy_1.csv").exists()

    def test_missing_output_dir(self, tmp_path, fast_cfg):
        rc = main(["synth", "--config", fast_cfg, "--out", str(tmp_path / "nope")])
        assert rc == EXIT_IO

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux=1\n")
        out = tmp_path / "corpus"
        out.mkdir()
        rc = main(["synth", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("line", ["psf_sigma=nan", "snr_db_min=nan", "amplitude_max=inf"])
    def test_non_finite_value_is_usage_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + line + "\n")
        out = tmp_path / "corpus"
        out.mkdir()
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert one_error_line(capsys)

    # finite and valid, but the noise scale overflows, the truth overflows,
    # or the PSF is so narrow that the truth is constant
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lines", ["snr_db_max=1e308",
                                       "amplitude_min=1e307\namplitude_max=1e308",
                                       "psf_sigma=1e-200"],
                             ids=["snr_db_max", "amplitude", "psf_sigma"])
    def test_extreme_value_is_usage_error(self, tmp_path, lines, capsys):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(f"n_images=1\nn1=8\nn2=8\n{lines}\n")
        out = tmp_path / "corpus"
        out.mkdir()
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert one_error_line(capsys)


class TestDenoise:
    def run(self, tmp_path, noisy_csv, fast_cfg, *extra):
        args = [
            "denoise", "--input", noisy_csv, "--config", fast_cfg,
            "--out-mean", str(tmp_path / "mean.csv"),
            "--out-mask", str(tmp_path / "mask.csv"),
            "--out-trace", str(tmp_path / "trace.csv"),
        ]
        return main(args + list(extra))

    def test_produces_outputs(self, tmp_path, noisy_csv, fast_cfg):
        assert self.run(tmp_path, noisy_csv, fast_cfg) == EXIT_OK
        mean = read_raster_csv(tmp_path / "mean.csv")
        assert (mean.n1, mean.n2) == (12, 12)
        mask = read_raster_csv(tmp_path / "mask.csv")
        assert set(np.unique(mask.data)) <= {0.0, 1.0}
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        header = [l for l in trace if l.startswith("iteration,")]
        assert header == ["iteration,kappa_l,kappa_f,gamma1,gamma2,gamma3"]
        assert len([l for l in trace if l and not l.startswith("#")]) == 1 + 10

    def test_config_echoed_into_outputs(self, tmp_path, noisy_csv, fast_cfg):
        self.run(tmp_path, noisy_csv, fast_cfg)
        text = (tmp_path / "mean.csv").read_text()
        assert "# T=10" in text
        assert "# variant=higmrf" in text

    def test_crop_shrinks_lattice(self, tmp_path, noisy_csv, fast_cfg):
        assert self.run(tmp_path, noisy_csv, fast_cfg, "--crop", "2,3,8,6") == EXIT_OK
        mean = read_raster_csv(tmp_path / "mean.csv")
        assert (mean.n1, mean.n2) == (8, 6)

    def test_bad_crop_is_usage_error(self, tmp_path, noisy_csv, fast_cfg):
        assert self.run(tmp_path, noisy_csv, fast_cfg, "--crop", "9,9,9,9") == EXIT_USAGE
        assert self.run(tmp_path, noisy_csv, fast_cfg, "--crop", "1,1") == EXIT_USAGE

    def test_single_pixel_is_usage_error(self, tmp_path, noisy_csv, fast_cfg, capsys):
        one = tmp_path / "one.csv"
        write_raster_csv(one, Raster(1, 1, [0.5]))
        assert self.run(tmp_path, str(one), fast_cfg) == EXIT_USAGE
        assert self.run(tmp_path, noisy_csv, fast_cfg, "--crop", "3,4,1,1") == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(l.startswith("smfdenoise: ") for l in err)

    @pytest.mark.parametrize("line", ["h=nan", "h=inf", "lambda=inf"])
    def test_non_finite_value_is_usage_error(self, tmp_path, noisy_csv, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + line + "\n")
        assert self.run(tmp_path, noisy_csv, str(cfg)) == EXIT_USAGE
        assert one_error_line(capsys)

    # a warning would reach the user's stderr next to the error line
    @pytest.mark.filterwarnings("error")
    def test_non_finite_precision_draw_is_numerical_error(self, tmp_path, noisy_csv, capsys):
        # finite and valid, but the background weights overflow Q
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST_CFG + "lambda=1e200\n")
        assert self.run(tmp_path, noisy_csv, str(cfg)) == EXIT_NUMERICAL
        assert one_error_line(capsys)

    # a warning would reach the user's stderr next to the error line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["igmrf", "higmrf"])
    def test_input_range_past_float64_is_numerical_error(self, tmp_path, fast_cfg, variant,
                                                        capsys):
        # every value is finite, but max - min is not
        wide = tmp_path / "wide.csv"
        wide.write_text("-1.7e308,0,1\n2,3,1.7e308\n")
        assert self.run(tmp_path, str(wide), fast_cfg, "--variant", variant) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smfdenoise: input range [-1.7e+308, 1.7e+308]")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["igmrf", "higmrf"])
    def test_posterior_mean_past_float64_is_numerical_error(self, tmp_path, fast_cfg, variant,
                                                           capsys):
        # max - min is finite, but a posterior mean a little outside the
        # input range is not; most seeds draw one on this image
        edge = tmp_path / "edge.csv"
        edge.write_text("-1.7e308,0,0\n0,0,0\n")
        codes = [self.run(tmp_path, str(edge), fast_cfg, "--variant", variant, "--seed", str(s))
                 for s in range(10)]
        assert set(codes) <= {EXIT_OK, EXIT_NUMERICAL} and EXIT_NUMERICAL in codes
        err = capsys.readouterr().err.splitlines()
        assert len(err) == codes.count(EXIT_NUMERICAL)
        assert all(l.startswith("smfdenoise: posterior mean overflows float64") for l in err)

    def test_missing_input_is_io_error(self, tmp_path, fast_cfg):
        rc = self.run(tmp_path, str(tmp_path / "ghost.csv"), fast_cfg)
        assert rc == EXIT_IO

    def test_unallocatable_trace_is_memory_error(self, tmp_path, noisy_csv, capsys):
        # a (T, 2) trace of 146 TiB, more than a 64-bit user address space
        cfg = tmp_path / "long.cfg"
        cfg.write_text(FAST_CFG + "T=10000000000000\n")
        assert self.run(tmp_path, noisy_csv, str(cfg)) == EXIT_MEMORY
        assert one_error_line(capsys)
        assert not (tmp_path / "mean.csv").exists()

    def test_unsizable_trace_is_usage_error(self, tmp_path, noisy_csv, capsys):
        # a (T, 3) float64 trace past the largest size NumPy can express
        cfg = tmp_path / "long.cfg"
        cfg.write_text(FAST_CFG + f"T={10**18}\n")
        assert self.run(tmp_path, noisy_csv, str(cfg)) == EXIT_USAGE
        assert one_error_line(capsys)
        assert not (tmp_path / "mean.csv").exists()

    def test_pgm_with_header_comments_is_read(self, tmp_path, fast_cfg, capsys):
        pixels = bytes(np.random.default_rng(2).integers(0, 256, 36, dtype=np.uint8))
        good = tmp_path / "c.pgm"
        good.write_bytes(b"P5\n6 # width\n6 # height\n255\n" + pixels)
        assert self.run(tmp_path, str(good), fast_cfg) == EXIT_OK
        short = tmp_path / "short.pgm"
        short.write_bytes(b"P5\n6 # width\n6 # height\n255\n" + pixels[:-1])
        assert self.run(tmp_path, str(short), fast_cfg) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "short.pgm: truncated pixel data" in err[0]

    def test_unknown_variant_rejected_by_parser(self, tmp_path, noisy_csv, fast_cfg):
        with pytest.raises(SystemExit):
            self.run(tmp_path, noisy_csv, fast_cfg, "--variant", "median")


class TestBench:
    def make_corpus(self, tmp_path, fast_cfg):
        out = tmp_path / "corpus"
        out.mkdir()
        assert main(["synth", "--config", fast_cfg, "--out", str(out)]) == EXIT_OK
        return out

    def test_baseline_run(self, tmp_path, fast_cfg):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        report = tmp_path / "report.csv"
        rc = main(["bench", "--corpus", str(corpus), "--methods", "ga,av,wi",
                   "--config", fast_cfg, "--report", str(report)])
        assert rc == EXIT_OK
        lines = [l for l in report.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("image,method,")
        assert sum(l.startswith("mean,") for l in lines) == 3

    def test_unknown_method(self, tmp_path, fast_cfg):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        rc = main(["bench", "--corpus", str(corpus), "--methods", "ga,zzz",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("methods", ["ga,ga,higmrf,higmrf", "igmrf, ga,igmrf"])
    def test_repeated_method_is_usage_error(self, tmp_path, fast_cfg, methods, capsys,
                                            monkeypatch):
        # a repeated method would run twice per image and write every row twice
        corpus = self.make_corpus(tmp_path, fast_cfg)
        capsys.readouterr()
        monkeypatch.setattr(bench, "run_bench", lambda *a: pytest.fail("a method ran"))
        report = tmp_path / "r.csv"
        rc = main(["bench", "--corpus", str(corpus), "--methods", methods,
                   "--config", fast_cfg, "--report", str(report)])
        assert rc == EXIT_USAGE
        assert one_error_line(capsys)
        assert not report.exists()

    def test_missing_external_outputs(self, tmp_path, fast_cfg):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        ext = tmp_path / "ext"
        ext.mkdir()
        rc = main(["bench", "--corpus", str(corpus),
                   "--methods", f"external:{ext}",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_MISSING

    def test_undefined_metric_is_metric_error(self, tmp_path, fast_cfg, capsys):
        # PSNR is undefined for an estimate whose maximum is not positive
        corpus = self.make_corpus(tmp_path, fast_cfg)
        ext = tmp_path / "ext"
        ext.mkdir()
        for k in range(2):
            write_raster_csv(ext / f"denoised_{k}.csv", Raster.from_2d(-np.ones((12, 12))))
        capsys.readouterr()
        rc = main(["bench", "--corpus", str(corpus), "--methods", f"external:{ext}",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_METRIC
        assert one_error_line(capsys)

    def test_missing_corpus(self, tmp_path, fast_cfg):
        rc = main(["bench", "--corpus", str(tmp_path / "nope"), "--methods", "ga",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_IO

    def test_manifest_without_images_is_io_error(self, tmp_path, fast_cfg, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.csv").write_text(
            "index,spot_count,centers,amplitudes,target_snr_db,realized_snr_db,seed\n")
        rc = main(["bench", "--corpus", str(corpus), "--methods", "ga",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_IO
        assert one_error_line(capsys)

    def test_pair_on_two_lattices_is_io_error(self, tmp_path, fast_cfg, capsys, monkeypatch):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        write_raster_csv(corpus / "noisy_1.csv", Raster.from_2d(np.ones((3, 3))))
        monkeypatch.setattr(bench, "run_bench", lambda *a: pytest.fail("a method ran"))
        capsys.readouterr()
        report = tmp_path / "r.csv"
        rc = main(["bench", "--corpus", str(corpus), "--methods", "ga,igmrf",
                   "--config", fast_cfg, "--report", str(report)])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smfdenoise: ")
        assert "truth_1.csv" in err[0] and "noisy_1.csv" in err[0]
        assert not report.exists()

    # each output is read and checked against its truth before any method runs
    @pytest.mark.parametrize("text", ["1,x\n", "1,2\n3,4\n"], ids=["unparsable", "shape"])
    def test_bad_external_output_is_io_error(self, tmp_path, fast_cfg, text, capsys,
                                             monkeypatch):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        ext = tmp_path / "ext"
        ext.mkdir()
        (ext / "denoised_0.csv").write_text(text)
        write_raster_csv(ext / "denoised_1.csv", read_raster_csv(corpus / "truth_1.csv"))
        monkeypatch.setattr(bench, "run_method", lambda *a: pytest.fail("a method ran"))
        capsys.readouterr()
        rc = main(["bench", "--corpus", str(corpus), "--methods", f"ga,external:{ext}",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smfdenoise: ")
        assert str(ext / "denoised_0.csv") in err[0]

    # numpy's warning on inf - inf would reach the user's stderr
    @pytest.mark.filterwarnings("error")
    def test_outputs_equal_to_their_truths_succeed_silently(self, tmp_path, fast_cfg, capsys):
        corpus = self.make_corpus(tmp_path, fast_cfg)
        ext = tmp_path / "ext"
        ext.mkdir()
        for k in range(2):
            write_raster_csv(ext / f"denoised_{k}.csv", read_raster_csv(corpus / f"truth_{k}.csv"))
        capsys.readouterr()
        report = tmp_path / "r.csv"
        rc = main(["bench", "--corpus", str(corpus), "--methods", f"external:{ext}",
                   "--config", fast_cfg, "--report", str(report)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""
        std = next(l for l in report.read_text().splitlines() if l.startswith("# std,"))
        assert std.split(",")[3] == "nan"  # the PSNR column


class TestDiagnose:
    def test_writes_report_with_verdicts(self, tmp_path, noisy_csv, fast_cfg):
        report = tmp_path / "psrf.csv"
        rc = main(["diagnose", "--input", noisy_csv, "--config", fast_cfg,
                   "--chains", "3", "--report", str(report)])
        assert rc in (EXIT_OK, 5)  # deterministic verdict either way
        lines = report.read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0] == "parameter,psrf,converged"
        assert {l.split(",")[0] for l in data[1:]} == {"kappa_l", "kappa_f"}

    def test_single_pixel_is_usage_error(self, tmp_path, fast_cfg, capsys):
        one = tmp_path / "one.csv"
        write_raster_csv(one, Raster(1, 1, [0.5]))
        rc = main(["diagnose", "--input", str(one), "--config", fast_cfg,
                   "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("smfdenoise: ")

    def test_single_chain_rejected(self, tmp_path, noisy_csv, fast_cfg):
        rc = main(["diagnose", "--input", noisy_csv, "--config", fast_cfg,
                   "--chains", "1", "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_USAGE

    # PSRF needs two post-burn-in draws per chain; T=2 gives burn_in=1
    @pytest.mark.parametrize("text", ["T=3\nburn_in=2\n", "T=2\n"], ids=["T3", "T2"])
    def test_too_few_draws_rejected_before_any_chain(self, tmp_path, noisy_csv, text,
                                                      capsys, monkeypatch):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(text)
        monkeypatch.setattr(cli, "run_chains", lambda *a, **k: pytest.fail("a chain ran"))
        rc = main(["diagnose", "--input", noisy_csv, "--config", str(cfg),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_USAGE
        assert one_error_line(capsys)

    @pytest.mark.parametrize("chains", [2, 3, 5])
    @pytest.mark.parametrize("variant", ["higmrf", "igmrf"])
    def test_matches_a_serial_loop_over_denoise(self, tmp_path, noisy_csv, fast_cfg, variant,
                                                chains, capsys, monkeypatch):
        def run(report):
            rc = main(["diagnose", "--input", noisy_csv, "--config", fast_cfg,
                       "--variant", variant, "--chains", str(chains), "--report", str(report)])
            return rc, report.read_bytes(), capsys.readouterr().out

        pooled = run(tmp_path / "pooled.csv")
        # chain c on seed + c, one after another in this process
        monkeypatch.setattr(cli, "run_chains", lambda y, hp, variant, chains: [
            sampler.denoise(y, replace(hp, seed=hp.seed + c), variant) for c in range(chains)])
        assert run(tmp_path / "serial.csv") == pooled


class TestNumericalFailure:
    @pytest.fixture(autouse=True)
    def failing_factor(self, monkeypatch):
        # every lattice here is narrow enough for the banded Cholesky
        def dpbtrf(ab, **kwargs):
            return ab, 1  # leading minor 1 not positive definite
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)

    def check(self, rc, capsys):
        assert rc == EXIT_NUMERICAL
        assert one_error_line(capsys)

    def test_denoise(self, tmp_path, noisy_csv, fast_cfg, capsys):
        rc = TestDenoise().run(tmp_path, noisy_csv, fast_cfg)
        self.check(rc, capsys)

    def test_bench(self, tmp_path, fast_cfg, capsys):
        corpus = TestBench().make_corpus(tmp_path, fast_cfg)
        capsys.readouterr()
        rc = main(["bench", "--corpus", str(corpus), "--methods", "higmrf",
                   "--config", fast_cfg, "--report", str(tmp_path / "r.csv")])
        self.check(rc, capsys)

    def test_diagnose(self, tmp_path, noisy_csv, fast_cfg, capsys, monkeypatch):
        # The factor fails only outside this process.  So exit 7 shows that
        # the chains ran in pool workers and that the error came back intact.
        parent = os.getpid()
        def dpbtrf(ab, **kwargs):
            return lapack.dpbtrf(ab, **kwargs) if os.getpid() == parent else (ab, 1)
        monkeypatch.setattr(sampler, "dpbtrf", dpbtrf)
        rc = main(["diagnose", "--input", noisy_csv, "--config", fast_cfg,
                   "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("smfdenoise: banded Cholesky failed at pivot 1 ")


def test_worker_killed_mid_run_is_one_line(tmp_path, noisy_csv, fast_cfg, capsys,
                                           monkeypatch):
    # a pool worker killed while its chain runs (say, by the out-of-memory
    # killer) ends diagnose with its own exit code, not a traceback
    parent = os.getpid()
    real_denoise = sampler.denoise
    def denoise(y, hp, variant):
        if hp.seed == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_denoise(y, hp, variant)
    monkeypatch.setattr(sampler, "denoise", denoise)
    rc = main(["diagnose", "--input", noisy_csv, "--config", fast_cfg, "--chains", "2",
               "--report", str(tmp_path / "r.csv")])
    assert rc == EXIT_WORKER_LOST
    assert one_error_line(capsys)


def test_cli_import_skips_ndimage_and_fft():
    # each costs start-up time on every CLI call; no CLI path needs scipy's
    # ndimage or fft, and only run_chains needs multiprocessing, so it
    # imports it when called
    src = str(Path(smfdenoise.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, smfdenoise.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.ndimage', 'scipy.fft', 'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
