"""Flat key=value configuration files covering sampler, filter and corpus settings."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .baselines import FilterConfig
from .model import HyperParams
from .synth import SynthConfig

__all__ = [
    "ConfigError",
    "load_config",
    "parse_config_text",
    "effective_config_lines",
]


class ConfigError(ValueError):
    """Bad key or value in a configuration file; names the offender."""


# config key -> (dataclass attribute, type). "lambda" and "T" keep their
# conventional spellings in files; attribute names stay valid Python.
_HYPER_KEYS = {
    "alpha_l": ("alpha_l", float),
    "beta_l": ("beta_l", float),
    "alpha_f": ("alpha_f", float),
    "beta_f": ("beta_f", float),
    "gamma_precision": ("gamma_precision", float),
    "lambda": ("lam", float),
    "h": ("h", float),
    "T": ("n_iter", int),
    "window": ("window", int),
    "burn_in": ("burn_in", int),
    "seed": ("seed", int),
}
_FILTER_KEYS = {
    "gaussian_sigma": ("gaussian_sigma", float),
    "gaussian_size": ("gaussian_size", int),
    "average_size": ("average_size", int),
    "wiener_size": ("wiener_size", int),
    "nlm_patch": ("nlm_patch", int),
    "nlm_search": ("nlm_search", int),
    "nlm_h": ("nlm_h", float),
}
_SYNTH_KEYS = {
    "n1": ("n1", int),
    "n2": ("n2", int),
    "n_images": ("n_images", int),
    "spots_min": ("spots_min", int),
    "spots_max": ("spots_max", int),
    "amplitude_min": ("amplitude_min", float),
    "amplitude_max": ("amplitude_max", float),
    "psf_sigma": ("psf_sigma", float),
    "snr_db_min": ("snr_db_min", float),
    "snr_db_max": ("snr_db_max", float),
    "seed": ("seed", int),
}


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; later keys override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _apply(obj, keymap, raw: dict[str, str]):
    for key, sval in raw.items():
        if key not in keymap:
            continue
        attr, typ = keymap[key]
        try:
            setattr(obj, attr, typ(sval))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {sval!r} as {typ.__name__}") from exc


def load_config(path=None, overrides: dict[str, str] | None = None,
                ) -> tuple[HyperParams, FilterConfig, SynthConfig]:
    """Build the three configuration objects from an optional file plus overrides.

    Overrides use the same key vocabulary as the file and win over it.
    Unknown keys are rejected.
    """
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(parse_config_text(Path(path).read_text()))
    for k, v in (overrides or {}).items():
        raw[k] = str(v)

    known = set(_HYPER_KEYS) | set(_FILTER_KEYS) | set(_SYNTH_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")

    hp = HyperParams()
    fc = FilterConfig()
    sc = SynthConfig()
    _apply(hp, _HYPER_KEYS, raw)
    _apply(fc, _FILTER_KEYS, raw)
    _apply(sc, _SYNTH_KEYS, raw)
    # burn_in tracks T unless set explicitly
    if "T" in raw and "burn_in" not in raw:
        hp.burn_in = hp.n_iter // 2
    try:
        hp.validate()
        fc.validate()
        sc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return hp, fc, sc


def effective_config_lines(hp: HyperParams, fc: FilterConfig, sc: SynthConfig) -> list[str]:
    """Full configuration echo, one 'key=value' string per addressable field."""
    inv_hyper = {attr: key for key, (attr, _) in _HYPER_KEYS.items()}
    lines = []
    for f in fields(hp):
        lines.append(f"{inv_hyper[f.name]}={getattr(hp, f.name)}")
    for f in fields(fc):
        lines.append(f"{f.name}={getattr(fc, f.name)}")
    for f in fields(sc):
        if f.name == "seed":
            continue  # already echoed from the sampler block
        lines.append(f"{f.name}={getattr(sc, f.name)}")
    return lines
