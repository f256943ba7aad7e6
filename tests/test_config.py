from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg.config import RunConfig, env_overrides, parse_config_file, resolve
from meshtkg.tkg import ParseError


class TestProfiles:
    def test_full_profile_presets(self):
        cfg = resolve({"dataset": "x", "profile": "full"})
        assert cfg.dim == 100
        assert cfg.llm_dim == 4096
        assert cfg.channels == 50
        assert cfg.kernel_width == 3
        assert cfg.learning_rate == 0.001
        assert cfg.omega == 1.0
        assert cfg.num_historical == 1 and cfg.num_nonhistorical == 1
        assert cfg.epochs_stage0 == 500
        assert cfg.dropout == 0.2
        assert cfg.window == 3

    def test_desk_profile_presets(self):
        cfg = resolve({"dataset": "x"})
        assert cfg.profile == "desk"
        assert cfg.dim == 32
        assert cfg.channels == 8

    def test_desk_profile_is_the_field_defaults(self):
        # the run seed stands in for the synthetic-embedding seed left at 0
        assert resolve({"dataset": "x"}) == RunConfig(dataset="x", synthetic_seed=RunConfig.seed)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            resolve({"dataset": "x", "profile": "gpu"})


class TestLayering:
    def test_file_beats_profile(self, tmp_path):
        path = tmp_path / "c"
        path.write_text("dim = 48\n")
        cfg = resolve({"dataset": "x"}, config_file=str(path))
        assert cfg.dim == 48

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "c"
        path.write_text("dim = 48\n")
        cfg = resolve({"dataset": "x"}, config_file=str(path), environ={"MESH_DIM": "56"})
        assert cfg.dim == 56

    def test_flag_beats_env(self):
        cfg = resolve({"dataset": "x", "dim": 64}, environ={"MESH_DIM": "56"})
        assert cfg.dim == 64

    def test_env_parsing(self):
        values = env_overrides({"MESH_OMEGA": "0.4", "MESH_DISABLE_SEMANTIC": "true",
                                "UNRELATED": "1"})
        assert values == {"omega": 0.4, "disable_semantic": True}

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "c"
        path.write_text("dimension = 4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("line, message", [
        (b"dim = abc", "cannot parse int config value 'abc' for dim"),
        (b"omega = high", "cannot parse float config value 'high' for omega"),
        (b"disable_semantic = maybe", "cannot parse boolean config value 'maybe' for disable_semantic"),
        (b"dim 48", "expected `key = value`, got 'dim 48'"),
        (b"dim = 4\xff8", "byte 0xff is not UTF-8"),
    ], ids=["int", "float", "bool", "no_equals", "utf8"])
    def test_bad_file_line_is_located(self, tmp_path, line, message):
        """A malformed line is a ParseError at its path and line, and as a
        ValueError it is a configuration error."""
        path = tmp_path / "c"
        path.write_bytes(b"seed = 2\n" + line + b"\n")
        with pytest.raises(ParseError) as exc:
            parse_config_file(str(path))
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("key, raw, kind", [("dim", "abc", "int"), ("omega", "high", "float"),
                                                ("disable_semantic", "maybe", "boolean")])
    def test_bad_env_value_names_the_variable(self, key, raw, kind):
        variable = f"MESH_{key.upper()}"
        with pytest.raises(ValueError) as exc:
            env_overrides({"MESH_SEED": "2", variable: raw})
        assert str(exc.value) == f"{variable}: cannot parse {kind} config value {raw!r} for {key}"

    def test_echo_roundtrips(self, tmp_path):
        cfg = resolve({"dataset": "x", "dim": 24, "omega": 0.7, "disable_semantic": True})
        path = tmp_path / "config.echo"
        path.write_text(cfg.echo())
        cfg2 = resolve({}, config_file=str(path))
        assert cfg2 == cfg


    def test_echo_with_a_hash_in_a_value_roundtrips(self, tmp_path):
        """Only a line whose first non-blank character is `#` is a comment."""
        cfg = RunConfig(out="runs/a#1", dataset="data #2")
        path = tmp_path / "config.echo"
        path.write_text("# a comment\n  # an indented one\n" + cfg.echo())
        assert RunConfig(**parse_config_file(str(path))) == cfg

    @settings(max_examples=300, deadline=None)
    @given(values=st.fixed_dictionaries({
        name: st.text(alphabet=st.one_of(st.characters(), st.characters(categories=["Cs"]),
                                         st.sampled_from("\0\n\r\t =#")))
        for name in ("out", "dataset", "embeddings")}))
    def test_string_values_echo_round_trip(self, values, tmp_path_factory):
        """A string value RunConfig accepts is written by `echo` as UTF-8
        and read back unchanged; any other is refused when built."""
        try:
            cfg = RunConfig(**values)
        except ValueError:
            return
        path = tmp_path_factory.mktemp("echo") / "config.echo"
        path.write_bytes(cfg.echo().encode("utf-8"))
        assert RunConfig(**parse_config_file(str(path))) == cfg


class TestValidation:
    def test_defaults_validate(self):
        RunConfig()

    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("omega", -0.5), ("dropout", 1.0), ("drop_history", 2.0),
        ("loss_mode", "mse"), ("dtype", "float16"), ("gate_input", "both"),
        ("dim", "32"), ("dim", 32.0), ("seed", True), ("dropout", "0.2"),
        ("disable_semantic", 1), ("out", None), ("omega", float("nan")),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("out", " runs/a "), ("out", "runs/a\t"), ("dataset", "d\nseed = 5"),
        ("out", "a\rb"), ("embeddings", "\u00a0e.emb"), ("out", "o\udcff"), ("out", "o\0x"),
    ], ids=["blanks", "trailing_tab", "newline", "carriage_return", "unicode_blank",
            "not_utf8", "nul"])
    def test_values_echo_cannot_hold_rejected(self, field, value):
        """`echo` writes one UTF-8 `key = value` line per field and the
        reader strips each value, so such a value would not read back; a
        path with a NUL cannot be opened."""
        with pytest.raises(ValueError, match=f"config field {field} must have no surrounding"):
            RunConfig(**{field: value})

    def test_both_paths_disabled_rejected(self):
        with pytest.raises(ValueError, match="both"):
            RunConfig(disable_semantic=True, disable_structural=True)

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.dim = 0

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="dim"):
            replace(RunConfig(), dim=0)

    def test_synthetic_seed_defaults_to_run_seed(self):
        cfg = resolve({"dataset": "x", "seed": 9})
        assert cfg.synthetic_seed == 9
