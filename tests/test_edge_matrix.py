"""Edge inputs and edge configurations through the CLI, in process.

Every call must end in an exit code that README documents, print at most
one line on stderr and raise no warning: a traceback, a ``nan`` report or a
``RuntimeWarning`` from an overflow is a failure.
"""

import warnings

import numpy as np
import pytest

from smfdenoise import cli
from smfdenoise.bench import write_corpus
from smfdenoise.fileio import write_raster_csv
from smfdenoise.lattice import Raster
from smfdenoise.synth import SynthConfig, SynthPair, generate_corpus

# the cli's EXIT_ constants, which test_hygiene ties to README's list
DOCUMENTED = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
SHORT_CHAIN = {"T": 4, "burn_in": 2}


def _inputs():
    rng = np.random.default_rng(8)
    wide = rng.uniform(-1.0, 1.0, (8, 8)) * 1e308
    wide[0, 0], wide[-1, -1] = -1e308, 1e308
    tiny = np.where(rng.random((8, 8)) < 0.5, 0.0, 5e-324)
    tiny[0, 0], tiny[-1, -1] = 0.0, 5e-324
    return {
        "normal": rng.standard_normal((8, 8)),
        "constant": np.full((8, 8), 3.0),
        "range_1e308": wide,
        "range_5e-324": tiny,
        "row_1x7": rng.standard_normal((1, 7)),
    }


INPUTS = _inputs()
# the re-anchor probe's 11 configurations, then a near-overflow prior scale
CONFIGS = [
    {},
    {"h": 1e300},
    {"h": -1e300},
    {"lambda": 1 + 1e-10},
    {"lambda": 1e150},
    {"alpha_l": 1e300, "alpha_f": 1e300},
    {"alpha_l": 1e-300, "alpha_f": 1e-300},
    {"beta_l": 1e300, "beta_f": 1e300},
    {"beta_l": 1e-300, "beta_f": 1e-300},
    {"gamma_precision": 1e300},
    {"gamma_precision": 1e-320},
    {"beta_l": 1e300},
]


def run_cli(argv, capsys):
    """The exit code of ``cli.main(argv)``, checked: documented, at most one
    stderr line, and no warning raised."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc in DOCUMENTED, (argv, rc)
    assert len(err) <= 1, (argv, err)
    assert [str(w.message) for w in caught] == [], argv
    return rc


def write_config(path, values):
    path.write_text("".join(f"{key}={value!r}\n" for key, value in
                            {**SHORT_CHAIN, **values}.items()))
    return str(path)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_denoise_and_diagnose(tmp_path, capsys, name):
    path = tmp_path / "input.csv"
    write_raster_csv(path, Raster.from_2d(INPUTS[name]))
    out = str(tmp_path / "out.csv")
    for k, values in enumerate(CONFIGS):
        cfg = write_config(tmp_path / f"{k}.cfg", values)
        for variant in (cli.IGMRF, cli.HIGMRF):
            common = ["--input", str(path), "--config", cfg, "--variant", variant]
            run_cli(["denoise", *common, "--out-mean", out, "--out-mask", out,
                     "--out-trace", out], capsys)
            run_cli(["diagnose", *common, "--chains", "2", "--report", out], capsys)


@pytest.mark.parametrize("scale", [1e150, 1e160])
def test_bench_on_large_intensities(tmp_path, capsys, scale):
    # a finite corpus gets finite measures, whatever its scale
    pairs = [SynthPair(Raster(p.truth.n1, p.truth.n2, p.truth.data * scale),
                       Raster(p.noisy.n1, p.noisy.n2, p.noisy.data * scale),
                       p.spots, p.target_snr_db, p.realized_snr_db, p.image_seed)
             for p in generate_corpus(SynthConfig(n1=10, n2=10, n_images=2, seed=1))]
    write_corpus(tmp_path, pairs, [])
    report = tmp_path / "report.csv"
    rc = run_cli(["bench", "--corpus", str(tmp_path), "--methods", "ga,av,igmrf,higmrf",
                  "--config", write_config(tmp_path / "short.cfg", {}),
                  "--report", str(report)], capsys)
    assert rc == cli.EXIT_OK
    rows = [line.split(",") for line in report.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert rows and all(np.isfinite(float(v)) for row in rows for v in row[2:6]), rows
