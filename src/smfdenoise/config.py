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


# "lambda" and "T" keep their conventional spellings in files; attribute
# names stay valid Python.  Every other field is a key under its own name.
_RENAMED = {"lam": "lambda", "n_iter": "T"}
_CLASSES = (HyperParams, FilterConfig, SynthConfig)
# config key -> (attribute, type), per class.  Every field is an int or a
# float, so its default gives its type.
_KEYMAPS = [{_RENAMED.get(f.name, f.name): (f.name, type(f.default)) for f in fields(cls)}
            for cls in _CLASSES]


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

    for key in raw:
        if not any(key in keymap for keymap in _KEYMAPS):
            raise ConfigError(f"unknown configuration key {key!r}")
    configs = tuple(cls() for cls in _CLASSES)
    for obj, keymap in zip(configs, _KEYMAPS):
        for key, sval in raw.items():
            if key not in keymap:
                continue
            attr, typ = keymap[key]
            try:
                setattr(obj, attr, typ(sval))
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {sval!r} as {typ.__name__}") from exc
    hp, fc, sc = configs
    # burn_in tracks T unless set explicitly
    if "T" in raw and "burn_in" not in raw:
        hp.burn_in = hp.n_iter // 2
    try:
        for obj in configs:
            obj.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return hp, fc, sc


def effective_config_lines(hp: HyperParams, fc: FilterConfig, sc: SynthConfig) -> list[str]:
    """Full configuration echo, one 'key=value' string per config key, in
    field order; a key that several objects share is echoed once, from the
    first of them."""
    values = {}
    for obj, keymap in zip((hp, fc, sc), _KEYMAPS):
        for key, (attr, _) in keymap.items():
            values.setdefault(key, getattr(obj, attr))
    return [f"{key}={value}" for key, value in values.items()]
