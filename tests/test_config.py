"""Tests for the key=value configuration loader."""

from dataclasses import fields

import pytest

from smfdenoise.baselines import FilterConfig
from smfdenoise.config import (
    ConfigError,
    effective_config_lines,
    load_config,
    parse_config_text,
)
from smfdenoise.model import HyperParams
from smfdenoise.synth import SynthConfig

CLASSES = (HyperParams, FilterConfig, SynthConfig)
# the two fields whose file key differs from the attribute name
RENAMED = {"lam": "lambda", "n_iter": "T"}


class TestParse:
    def test_basic_pairs_and_comments(self):
        raw = parse_config_text("a=1\n# comment\nb = 2  # trailing\n\nc=x\n")
        assert raw == {"a": "1", "b": "2", "c": "x"}

    def test_later_keys_win(self):
        assert parse_config_text("a=1\na=2\n") == {"a": "2"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("oops\n")


class TestLoadConfig:
    def test_defaults_without_file(self):
        hp, fc, sc = load_config()
        assert hp.n_iter == 100
        assert fc.wiener_size == 5
        assert sc.n_images == 50

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("lambda=75\nT=40\nh=0.2\nwiener_size=3\nn_images=4\n")
        hp, fc, sc = load_config(path)
        assert hp.lam == 75.0
        assert hp.n_iter == 40
        assert hp.burn_in == 20  # tracks T when not set explicitly
        assert hp.h == 0.2
        assert fc.wiener_size == 3
        assert sc.n_images == 4

    def test_explicit_burn_in_kept(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("T=40\nburn_in=5\n")
        hp, _, _ = load_config(path)
        assert hp.burn_in == 5

    def test_seed_shared_between_sampler_and_corpus(self):
        hp, _, sc = load_config(overrides={"seed": 17})
        assert hp.seed == 17
        assert sc.seed == 17

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("seed=1\n")
        hp, _, _ = load_config(path, overrides={"seed": 2})
        assert hp.seed == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("warp_factor=9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            load_config(path)

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("T=ten\n")
        with pytest.raises(ConfigError, match="T"):
            load_config(path)

    def test_invalid_combination_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("T=10\nburn_in=10\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestEcho:
    def test_every_value_echoed_with_file_spelling(self):
        hp, fc, sc = load_config(overrides={"lambda": 60, "T": 30})
        lines = effective_config_lines(hp, fc, sc)
        assert "lambda=60.0" in lines
        assert "T=30" in lines
        assert "wiener_size=5" in lines
        assert "n_images=50" in lines

    def test_echo_round_trips_through_parser(self):
        hp, fc, sc = load_config()
        text = "\n".join(effective_config_lines(hp, fc, sc))
        hp2, fc2, sc2 = load_config(overrides=parse_config_text(text))
        assert hp2 == hp
        assert fc2 == fc
        assert sc2 == sc


class TestSchema:
    """The config keys are derived from the fields of the three classes."""

    def test_every_field_echoed_once_under_its_key(self):
        keys = [line.split("=", 1)[0] for line in effective_config_lines(*load_config())]
        assert len(keys) == len(set(keys))
        assert set(keys) == {RENAMED.get(f.name, f.name) for cls in CLASSES for f in fields(cls)}

    def test_every_default_has_its_annotated_type(self):
        # the loader parses each key with the type of the field's default
        for cls in CLASSES:
            for f in fields(cls):
                assert type(f.default).__name__ == f.type, f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize(
        "f", [f for cls in CLASSES for f in fields(cls)],
        ids=[f"{cls.__name__}.{f.name}" for cls in CLASSES for f in fields(cls)])
    def test_every_field_is_set_by_its_key(self, f):
        value = f.default + 2 if isinstance(f.default, int) else f.default * 2
        configs = load_config(overrides={RENAMED.get(f.name, f.name): value})
        owners = [obj for obj in configs if f.name in {g.name for g in fields(obj)}]
        # seed is the one field of two classes; its key sets both
        assert len(owners) == (2 if f.name == "seed" else 1)
        assert all(getattr(obj, f.name) == value for obj in owners)
