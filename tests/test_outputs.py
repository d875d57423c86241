"""Golden texts of every file the CLI writes: rasters, the corpus manifest,
the bench report, the chain trace and the PSRF report, each compared whole.
The inputs are fixed arrays, and the commands run with their chains stubbed,
so a change to how a file is framed or how a number is formatted shows here
byte by byte."""

import math

import numpy as np
import pytest

from smfdenoise import cli
from smfdenoise.bench import BenchRow, write_corpus, write_report
from smfdenoise.fileio import write_raster_csv
from smfdenoise.lattice import Raster, SpotMask
from smfdenoise.metrics import MetricsReport
from smfdenoise.sampler import DenoiseResult
from smfdenoise.synth import Spot, SynthPair

# values whose text is most likely to change with the format: a 10-digit
# integer part, a repeating fraction, signed zero, an exponent either way
RASTER = Raster.from_2d([[0.1, -2.5, 1e-10, 2e20 / 3], [123456789.123, -0.0, 1 / 3, 7.0]])
MASK = SpotMask.from_2d([[0, 1, 1, 0], [1, 0, 0, 1]])

CONFIG = "T=4\nburn_in=2\nseed=7\n"
# the configuration echo of CONFIG, which opens every file a command writes
ECHO = """\
# alpha_l=1.0
# beta_l=10.0
# alpha_f=10.0
# beta_f=0.01
# gamma_precision=0.001
# lambda=50.0
# h=0.1
# T=4
# window=29
# burn_in=2
# seed=7
# gaussian_sigma=1.0
# gaussian_size=5
# average_size=3
# wiener_size=5
# nlm_patch=5
# nlm_search=11
# nlm_h=0.1
# n1=30
# n2=30
# n_images=50
# spots_min=3
# spots_max=8
# amplitude_min=0.5
# amplitude_max=1.0
# psf_sigma=1.2
# snr_db_min=5.0
# snr_db_max=10.0
"""


def result(theta):
    """A chain's result with the kappa trace ``theta`` and a fixed gamma trace."""
    theta = np.asarray(theta, dtype=np.float64)
    gamma = np.arange(theta.shape[0] * 3).reshape(-1, 3) / 7.0 - 0.5
    return DenoiseResult(RASTER, MASK, theta, gamma, wall_ms=12.5)


@pytest.fixture()
def cfg(tmp_path):
    path = tmp_path / "golden.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture()
def noisy(tmp_path):
    path = tmp_path / "noisy.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n")
    return str(path)


def test_raster_csv(tmp_path):
    path = tmp_path / "r.csv"
    write_raster_csv(path, RASTER, ["seed=3", "T=100"])
    assert path.read_text() == (
        "# seed=3\n# T=100\n"
        "0.1,-2.5,1e-10,6.66666667e+19\n"
        "123456789,-0,0.333333333,7\n")
    write_raster_csv(path, MASK)
    assert path.read_text() == "0,1,1,0\n1,0,0,1\n"


def test_corpus(tmp_path):
    truth = Raster.from_2d([[0.5, 0.25], [1 / 3, 0.0]])
    noisy = Raster.from_2d([[0.6, 0.2], [0.3, -0.1]])
    pairs = [SynthPair(truth, noisy, (Spot(0.25, 1.5, 0.75), Spot(1 / 3, 0.1, 2 / 3)),
                       7.5, 7.123456789123, 11),
             SynthPair(noisy, truth, (), 5.0, 4.9999999999, 12)]
    write_corpus(tmp_path, pairs, ["seed=6", "n_images=2"])
    echo = "# seed=6\n# n_images=2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.csv", "noisy_0.csv", "noisy_1.csv", "truth_0.csv", "truth_1.csv"]
    truth_text = echo + "0.5,0.25\n0.333333333,0\n"
    noisy_text = echo + "0.6,0.2\n0.3,-0.1\n"
    assert (tmp_path / "truth_0.csv").read_text() == truth_text
    assert (tmp_path / "noisy_0.csv").read_text() == noisy_text
    assert (tmp_path / "truth_1.csv").read_text() == noisy_text
    assert (tmp_path / "noisy_1.csv").read_text() == truth_text
    assert (tmp_path / "manifest.csv").read_text() == (
        echo
        + "index,spot_count,centers,amplitudes,target_snr_db,realized_snr_db,seed\n"
        "0,2,0.25:1.5;0.333333333:0.1,0.75;0.666666667,7.5,7.12345679,11\n"
        "1,0,,,5,5,12\n")


def test_report_with_an_infinite_psnr(tmp_path):
    # higmrf matches its truth on image 0, so its mean PSNR is inf and its
    # PSNR std nan; the rows come in method order and are written by image
    rows = [BenchRow(0, "ga", MetricsReport(0.1, 20.0, 0.01, 0.9), 1.5),
            BenchRow(1, "ga", MetricsReport(0.3, 10.5, 1 / 3, 0.7), 2.25),
            BenchRow(0, "higmrf", MetricsReport(0.0, math.inf, 0.0, 1.0), 1234.5678),
            BenchRow(1, "higmrf", MetricsReport(0.07, 30.25, 0.02, 0.95), 2345.6)]
    path = tmp_path / "report.csv"
    write_report(path, rows, ["ga", "higmrf"], ["seed=6"])
    assert path.read_text() == (
        "# seed=6\n"
        "image,method,rmse,psnr_db,kld,ssim,wall_ms\n"
        "0,ga,0.1,20,0.01,0.9,1.5\n"
        "0,higmrf,0,inf,0,1,1234.5678\n"
        "1,ga,0.3,10.5,0.333333333,0.7,2.25\n"
        "1,higmrf,0.07,30.25,0.02,0.95,2345.6\n"
        "mean,ga,0.2,15.25,0.171666667,0.8,1.875\n"
        "mean,higmrf,0.035,inf,0.01,0.975,1790.0839\n"
        "# std,ga,0.1,4.75,0.161666667,0.1\n"
        "# std,higmrf,0.035,nan,0.01,0.025\n")


def test_denoise_command(tmp_path, cfg, noisy, monkeypatch):
    calls = []

    def denoise(y, hp, variant):
        calls.append((y.to_2d().tolist(), hp.n_iter, variant))
        return result([[1.5, 0.25], [1 / 3, 2.0], [10.0, 1e-3], [7.0, 0.125]])

    monkeypatch.setattr(cli, "denoise", denoise)
    out = {name: tmp_path / f"{name}.csv" for name in ("mean", "mask", "trace")}
    rc = cli.main(["denoise", "--config", cfg, "--input", noisy, "--variant", "igmrf",
                   "--out-mean", str(out["mean"]), "--out-mask", str(out["mask"]),
                   "--out-trace", str(out["trace"])])
    assert rc == cli.EXIT_OK
    assert calls == [([[1, 2, 3, 4], [5, 6, 7, 8]], 4, "igmrf")]
    echo = ECHO + "# variant=igmrf\n"
    assert out["mean"].read_text() == echo + (
        "0.1,-2.5,1e-10,6.66666667e+19\n"
        "123456789,-0,0.333333333,7\n")
    assert out["mask"].read_text() == echo + "0,1,1,0\n1,0,0,1\n"
    assert out["trace"].read_text() == echo + (
        "iteration,kappa_l,kappa_f,gamma1,gamma2,gamma3\n"
        "1,1.5,0.25,-0.5,-0.357142857,-0.214285714\n"
        "2,0.333333333,2,-0.0714285714,0.0714285714,0.214285714\n"
        "3,10,0.001,0.357142857,0.5,0.642857143\n"
        "4,7,0.125,0.785714286,0.928571429,1.07142857\n")


def test_diagnose_command(tmp_path, cfg, noisy, monkeypatch, capsys):
    thetas = {0: [[1.0, 2.0], [1.5, 2.5], [2.0, 3.0], [2.5, 3.25]],
              1: [[1.0, 2.0], [1.5, 2.5], [3.0, 3.5], [3.25, 10 / 3]]}

    def run_chains(y, hp, variant, chains):
        assert (y.n1, y.n2, hp.n_iter, variant, chains) == (2, 4, 4, "higmrf", 2)
        return [result(thetas[c]) for c in range(chains)]

    monkeypatch.setattr(cli, "run_chains", run_chains)
    report = tmp_path / "psrf.csv"
    rc = cli.main(["diagnose", "--config", cfg, "--input", noisy, "--chains", "2",
                   "--report", str(report)])
    assert rc == cli.EXIT_NOT_CONVERGED
    assert capsys.readouterr().out == ("kappa_l: PSRF=5.4000 (NOT CONVERGED)\n"
                                       "kappa_f: PSRF=2.3846 (NOT CONVERGED)\n")
    assert report.read_text() == ECHO + (
        "# chains=2 variant=higmrf threshold=1.2\n"
        "parameter,psrf,converged\n"
        "kappa_l,5.4,0\n"
        "kappa_f,2.38461538,0\n")
