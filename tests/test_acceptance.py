"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
with the values it checked, so the verdicts survive in captured output.
"""

import math
import time

import numpy as np
import pytest
from conftest import dense_difference_oracle, dense_q, draw_in_pixels

from smfdenoise.baselines import FilterConfig
from smfdenoise.bench import run_bench, write_corpus, write_report
from smfdenoise.cli import EXIT_OK, main
from smfdenoise.diagnostics import TraceSet, psrf
from smfdenoise.fileio import read_raster_csv, write_raster_csv
from smfdenoise.lattice import (
    Raster,
    SpotMask,
    build_higmrf_precision,
    build_igmrf_precision,
)
from smfdenoise.metrics import kld, psnr, rmse, ssim
from smfdenoise.model import HyperParams, NoiseParams, make_design
from smfdenoise.pool import run_chains
from smfdenoise.sampler import (
    HIGMRF,
    SpectralPrecision,
    field_solver,
    get_binary_image,
    sample_gamma,
    sample_kappas,
)
from smfdenoise.synth import SynthConfig, generate_corpus

BASELINES = ("ga", "av", "wi", "nlm")


def verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SynthConfig())  # 50 images, 30x30, 5-10 dB


@pytest.fixture(scope="module")
def ranking(corpus, tmp_path_factory):
    pairs = [(p.truth, p.noisy) for p in corpus]
    methods = list(BASELINES) + ["igmrf", "higmrf"]
    t0 = time.perf_counter()
    rows = run_bench(pairs, methods, HyperParams(), FilterConfig())
    elapsed = time.perf_counter() - t0
    # the gate reads the corpus means users read: the report's mean rows
    report = tmp_path_factory.mktemp("criterion1") / "report.csv"
    write_report(report, rows, methods, [])
    table = {}
    for line in report.read_text().splitlines():
        if line.startswith("mean,"):
            _, method, *values = line.split(",")
            table[method] = dict(zip(("rmse", "psnr_db", "kld", "ssim"), map(float, values)))
    return table, elapsed


class TestCriterion1MethodRanking:
    def test_higmrf_beats_every_baseline_on_every_metric(self, ranking):
        table, elapsed = ranking
        hi = table["higmrf"]
        ok = all(
            hi["rmse"] < table[m]["rmse"]
            and hi["kld"] < table[m]["kld"]
            and hi["psnr_db"] > table[m]["psnr_db"]
            and hi["ssim"] > table[m]["ssim"]
            for m in BASELINES
        )
        ok = ok and hi["rmse"] <= table["igmrf"]["rmse"]
        ok = ok and elapsed < 600.0
        detail = (
            "corpus-mean rmse "
            + " ".join(f"{m}={table[m]['rmse']:.4f}" for m in BASELINES)
            + f" igmrf={table['igmrf']['rmse']:.4f} higmrf={hi['rmse']:.4f};"
            + f" psnr higmrf={hi['psnr_db']:.2f} best-baseline="
            + f"{max(table[m]['psnr_db'] for m in BASELINES):.2f};"
            + f" kld higmrf={hi['kld']:.4f} best={min(table[m]['kld'] for m in BASELINES):.4f};"
            + f" ssim higmrf={hi['ssim']:.4f} best={max(table[m]['ssim'] for m in BASELINES):.4f};"
            + f" runtime {elapsed:.0f}s"
        )
        verdict(1, ok, detail)


class TestCriterion2Convergence:
    def test_psrf_below_threshold_with_four_chains(self, corpus):
        hp = HyperParams()  # T=100
        # the chain runner that diagnose uses: chain c on seed hp.seed + c
        post = np.array([res.theta_trace[hp.burn_in:].T
                         for res in run_chains(corpus[0].noisy, hp, HIGMRF, 4)])
        r_l = psrf(TraceSet(post[:, 0]))
        r_f = psrf(TraceSet(post[:, 1]))
        ok = r_l < 1.2 and r_f < 1.2
        verdict(2, ok, f"PSRF kappa_l={r_l:.4f}, kappa_f={r_f:.4f} (threshold 1.2)")


class TestCriterion3PrecisionOracle:
    def test_sparse_equals_dense_brute_force(self):
        rng = np.random.default_rng(70)
        lam = 50.0
        worst = 0.0
        checked = 0
        sizes = [(n1, n2) for n1 in range(2, 9) for n2 in range(2, 9)]
        while checked < 100:
            n1, n2 = sizes[checked % len(sizes)]
            mask2d = rng.integers(0, 2, size=(n1, n2)).astype(np.int8)
            d = dense_difference_oracle(n1, n2, mask2d, lam)
            oracle = d.T @ d
            got = dense_q(n1, n2, build_higmrf_precision(SpotMask.from_2d(mask2d), lam))
            worst = max(worst, float(np.abs(got - oracle).max()))
            checked += 1
        all_spot = SpotMask(5, 5, np.ones(25, dtype=np.int8))
        igmrf_match = np.array_equal(dense_q(5, 5, build_higmrf_precision(all_spot, lam)),
                                     dense_q(5, 5, build_igmrf_precision(5, 5)))
        ok = worst <= 1e-12 and igmrf_match
        verdict(3, ok, f"{checked} random masks on 2x2..8x8, max |diff|={worst:.2e}; "
                       f"all-spot == homogeneous: {igmrf_match}")


def field_draw_moments(y, precision, solver, rng, m_draws=10000):
    """Field draws at a fixed gamma, made as a chain on ``precision`` makes
    them, against the dense pixel-space conditional it draws from,
    N(A^-1 kappa_l (y - Z gamma), A^-1) with A = kappa_l I + kappa_f Q:
    (mean within 3 SE, max z, covariance error)."""
    n1 = n2 = 4
    n = n1 * n2
    design = make_design(n1, n2)
    noise = NoiseParams(kappa_l=2.0, kappa_f=1.0)
    gamma0 = np.array([0.4, -0.3, 0.2])
    a = noise.kappa_l * np.eye(n) + noise.kappa_f * dense_q(n1, n2, precision)
    sigma = np.linalg.inv(a)
    zg = design @ gamma0
    mu = sigma @ (noise.kappa_l * (y - zg))
    draws = np.array([
        draw_in_pixels(y, zg, noise, precision, rng, solver)
        for _ in range(m_draws)
    ])
    se = np.sqrt(np.diag(sigma) / m_draws)
    z_mean = float(np.abs(draws.mean(axis=0) - mu).max() / se.max())
    mean_ok = bool(np.all(np.abs(draws.mean(axis=0) - mu) <= 3.0 * se))
    cov_err = np.linalg.norm(np.cov(draws.T) - sigma) / np.linalg.norm(sigma)
    return mean_ok, z_mean, cov_err


class TestCriterion4ConditionalOracle:
    def test_gibbs_conditional_moments(self):
        n1 = n2 = 4
        n = n1 * n2
        design = make_design(n1, n2)
        precision = build_igmrf_precision(n1, n2)
        noise = NoiseParams(kappa_l=2.0, kappa_f=1.0)
        gp = 1.0
        rng = np.random.default_rng(71)
        y = rng.standard_normal(n)
        m_draws = 10000

        # homogeneous field conditional, drawn in the basis igmrf chains run in
        spectral = SpectralPrecision(n1, n2)
        mean_ok, z_mean, cov_err = field_draw_moments(y, spectral, spectral, rng, m_draws)

        # trend-coefficient conditional
        f = rng.standard_normal(n) * 0.3
        ztz = design.T @ design
        c = np.linalg.inv(noise.kappa_l * ztz + gp * np.eye(3))
        m_gamma = noise.kappa_l * c @ design.T @ (y - f)
        gdraws = np.array([
            sample_gamma(y, f, noise.kappa_l, design, ztz, gp, rng)
            for _ in range(m_draws)
        ])
        g_se = np.sqrt(np.diag(c) / m_draws)
        gamma_ok = np.all(np.abs(gdraws.mean(axis=0) - m_gamma) <= 3.0 * g_se)
        g_cov_err = np.linalg.norm(np.cov(gdraws.T) - c) / np.linalg.norm(c)

        # precision conditionals
        hp = HyperParams()
        zg = design @ np.zeros(3)
        rss = float((y - f) @ (y - f))
        exp_kl = (n / 2 + hp.alpha_l) / (rss / 2 + 1 / hp.beta_l)
        exp_kf = (n / 2 + hp.alpha_f) / (precision.quad_form(f) / 2 + 1 / hp.beta_f)
        kdraws = [sample_kappas(y - zg - f, f, precision, hp, rng)
                  for _ in range(m_draws)]
        kl_err = abs(np.mean([k.kappa_l for k in kdraws]) - exp_kl) / exp_kl
        kf_err = abs(np.mean([k.kappa_f for k in kdraws]) - exp_kf) / exp_kf

        ok = (mean_ok and cov_err < 0.05 and gamma_ok and g_cov_err < 0.05
              and kl_err < 0.02 and kf_err < 0.02)
        verdict(4, ok,
                f"field mean max-z={z_mean:.2f} (<=3), cov err {cov_err:.3f} (<0.05); "
                f"trend cov err {g_cov_err:.3f}; kappa means off by "
                f"{kl_err:.3%}/{kf_err:.3%} (<2%)")

    def test_heterogeneous_field_conditional(self):
        # the field conditional higmrf chains draw from, on the solver
        # denoise picks for this lattice
        rng = np.random.default_rng(74)
        mask = SpotMask.from_2d(rng.integers(0, 2, size=(4, 4)).astype(np.int8))
        precision = build_higmrf_precision(mask, 50.0)
        y = rng.standard_normal(16)
        mean_ok, z_mean, cov_err = field_draw_moments(
            y, precision, field_solver(precision), rng)
        ok = mean_ok and cov_err < 0.05
        verdict(4, ok,
                f"heterogeneous field ({int(mask.data.sum())}/16 spot pixels, lam=50): "
                f"mean max-z={z_mean:.2f} (<=3), cov err {cov_err:.3f} (<0.05)")


class TestCriterion5MetricGoldenValues:
    def test_hand_derived_values(self):
        one = Raster(1, 2, [1.0, 1.0])
        two = Raster(1, 2, [0.0, 2.0])
        checks = {
            "rmse": abs(rmse(one, two) - 1.0),
            "uqi": abs(ssim(Raster(1, 2, [0.0, 1.0]), Raster(1, 2, [1.0, 2.0])) - 0.6),
            "psrf": abs(psrf(TraceSet(np.array([[0.0, 2.0], [1.0, 3.0]]))) - 0.75),
            "kld": abs(kld(two, two)),
        }
        ok = all(v <= 1e-12 for v in checks.values())
        ok = ok and psnr(two, two) == math.inf
        verdict(5, ok, "; ".join(f"{k} err {v:.1e}" for k, v in checks.items()))


class TestCriterion6Determinism:
    def test_cli_and_corpus_reproducible(self, tmp_path):
        rng = np.random.default_rng(72)
        x = np.zeros((12, 12))
        x[6, 6] = 1.0
        x += 0.05 * rng.standard_normal((12, 12))
        inp = tmp_path / "in.csv"
        write_raster_csv(inp, Raster.from_2d(x))
        cfg = tmp_path / "cfg"
        cfg.write_text("T=20\nburn_in=10\nwindow=9\nseed=5\n")
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            rc = main(["denoise", "--input", str(inp), "--config", str(cfg),
                       "--out-mean", str(d / "mean.csv"),
                       "--out-mask", str(d / "mask.csv"),
                       "--out-trace", str(d / "trace.csv")])
            assert rc == EXIT_OK
            outputs.append(tuple((d / f).read_bytes()
                                 for f in ("mean.csv", "mask.csv", "trace.csv")))
        cli_same = outputs[0] == outputs[1]

        pairs = generate_corpus(SynthConfig(n_images=2, n1=10, n2=10, seed=8))
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        c1.mkdir()
        c2.mkdir()
        write_corpus(c1, pairs, ["seed=8"])
        write_corpus(c2, generate_corpus(SynthConfig(n_images=2, n1=10, n2=10, seed=8)),
                     ["seed=8"])
        corpus_same = all(
            (c1 / f).read_bytes() == (c2 / f).read_bytes()
            for f in ("manifest.csv", "truth_0.csv", "noisy_1.csv")
        )
        verdict(6, cli_same and corpus_same,
                f"denoise outputs byte-identical: {cli_same}; "
                f"corpus byte-identical: {corpus_same}")


class TestCriterion7ThresholdConformance:
    def test_five_by_five_hand_oracle(self):
        x = np.zeros((5, 5))
        x[2, 2] = 10.0
        window, h = 3, 0.1
        half = window // 2
        expected = np.zeros((5, 5), dtype=np.int8)
        for i in range(5):
            for j in range(5):
                r0, r1 = max(0, i - half), min(5, i + half + 1)
                c0, c1 = max(0, j - half), min(5, j + half + 1)
                patch = x[r0:r1, c0:c1]
                thresh = patch.mean() + h * patch.std()  # population sd
                expected[i, j] = 1 if x[i, j] >= thresh else 0
        got = get_binary_image(x, h=h, window=window).to_2d()
        # the far corners sit in constant windows: sigma=0 and f == mu,
        # so the literal >= comparison marks them as spots
        degenerate_ok = expected[0, 0] == 1 and got[0, 0] == 1
        match = np.array_equal(got, expected)
        verdict(7, match and degenerate_ok,
                f"mask equals hand oracle: {match}; degenerate windows flagged: "
                f"{degenerate_ok}; spot count {int(got.sum())}")


class TestCriterion8CropPath:
    def test_forty_by_forty_crop_on_synthetic_standin(self, tmp_path):
        pair = generate_corpus(SynthConfig(n_images=1, n1=60, n2=60, seed=12))[0]
        inp = tmp_path / "big.csv"
        write_raster_csv(inp, pair.noisy)
        cfg = tmp_path / "cfg"
        cfg.write_text("T=20\nburn_in=10\n")
        rc = main(["denoise", "--input", str(inp), "--config", str(cfg),
                   "--crop", "10,15,40,40",
                   "--out-mean", str(tmp_path / "mean.csv"),
                   "--out-mask", str(tmp_path / "mask.csv"),
                   "--out-trace", str(tmp_path / "trace.csv")])
        mean = read_raster_csv(tmp_path / "mean.csv")
        ok = rc == EXIT_OK and (mean.n1, mean.n2) == (40, 40)
        verdict(8, ok, f"exit code {rc}, cropped output {mean.n1}x{mean.n2}")
