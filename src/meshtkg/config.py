"""Run configuration: profiles, config files, environment, flags.

Precedence, lowest to highest: profile preset, config file (flat
`key = value` lines), environment variables (`MESH_<KEY>`), command-line
flags. Every run writes the fully resolved configuration to
`config.echo`, and a run started from that echo reproduces the original
bit for bit (same seed, same streams). Config files are read through
`tkg.read_file`. The RunConfig checks every field when it is built, with
the allowed values of the enumerated fields in `CHOICES`, which the CLI
shares; a `model.ModelSpec` is only derived from a checked RunConfig.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .tkg import ParseError, read_file, text_lines

PROFILES = {
    # full-scale settings
    "full": dict(
        dim=100, llm_dim=4096, adapter_hidden=256, channels=50, kernel_width=3,
        layers=2, window=3, num_historical=1, num_nonhistorical=1,
        omega=1.0, learning_rate=0.001, dropout=0.2,
        epochs_stage0=500, epochs_stage1=30,
    ),
    # CPU-friendly settings for desk runs and tests: RunConfig's defaults
    "desk": {},
}

LOSS_MODES = ("cross_entropy", "literal")
GATE_INPUTS = ("structural", "semantic", "concatenated")
DTYPES = ("float32", "float64")
# the allowed values of every enumerated field, for validation and the CLI
CHOICES = {"profile": tuple(PROFILES), "loss_mode": LOSS_MODES, "dtype": DTYPES,
           "gate_input": GATE_INPUTS}
# the values each annotated field type accepts (a bool is no number here)
KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when built: a RunConfig that exists is
    valid. Derive variants with `dataclasses.replace`, which checks again."""

    dataset: str = ""
    out: str = "out"
    profile: str = "desk"
    seed: int = 1
    dim: int = 32
    llm_dim: int = 64
    adapter_hidden: int = 64
    channels: int = 8
    kernel_width: int = 3
    layers: int = 2
    window: int = 3
    num_historical: int = 1
    num_nonhistorical: int = 1
    omega: float = 1.0
    learning_rate: float = 0.001
    dropout: float = 0.2
    epochs_stage0: int = 30
    epochs_stage1: int = 20
    loss_mode: str = "cross_entropy"
    embeddings: str = ""          # path to an embedding file; empty = synthetic
    synthetic_seed: int = 0       # 0 = derive from the run seed
    max_timestamps: int = 0       # 0 = no truncation
    drop_history: float = 0.0
    dtype: str = "float32"
    disable_semantic: bool = False
    disable_structural: bool = False
    disable_prediction_expert: bool = False
    gate_input: str = "structural"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, KINDS[f.type]) or isinstance(value, bool) != (f.type == "bool"):
                raise ValueError(f"config field {f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"config field {f.name} must be finite")
            # `echo` writes one UTF-8 `key = value` line, read back stripped;
            # a surrogate (what a non-UTF-8 argv byte decodes to) has no UTF-8
            # form, and a path with a NUL cannot be opened
            if f.type == "str" and (value != value.strip() or "\n" in value or "\r" in value
                                    or "\0" in value
                                    or any("\ud800" <= c <= "\udfff" for c in value)):
                raise ValueError(f"config field {f.name} must have no surrounding blanks, "
                                 f"no line break, no NUL and no character UTF-8 cannot "
                                 f"encode, got {value!r}")
        positive = (
            "dim", "llm_dim", "adapter_hidden", "channels", "kernel_width",
            "layers", "num_historical", "num_nonhistorical", "learning_rate",
        )
        # range checks are written so that NaN fails them
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        for name in ("window", "epochs_stage0", "epochs_stage1", "max_timestamps", "omega"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"config field {name} must be >= 0")
        # a Philox key is 64 bits wide: any other seed would alias one inside
        for name in ("seed", "synthetic_seed"):
            if not 0 <= getattr(self, name) < 2**64:
                raise ValueError(f"config field {name} must be in 0..2**64 - 1")
        if self.kernel_width % 2 == 0:
            raise ValueError("kernel_width must be odd")
        if not self.out:
            raise ValueError("config field out must not be empty")
        if self.max_timestamps in (1, 2):
            raise ValueError("max_timestamps must be 0 (no cap) or at least 3 (one per split)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.drop_history <= 1.0:
            raise ValueError("drop_history must be in [0, 1]")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        if self.disable_semantic and self.disable_structural:
            raise ValueError("cannot disable both the semantic and the structural path")

    def echo(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


def _coerce(name: str, raw: str):
    kind = RunConfig.__dataclass_fields__[name].type
    if kind == "str":
        return raw.strip()
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean config value {raw!r} for {name}")
    try:
        return {"int": int, "float": float}[kind](raw)
    except ValueError:
        raise ValueError(f"cannot parse {kind} config value {raw!r} for {name}") from None


def parse_config_file(path: str) -> dict:
    """The `key = value` lines of a config file. A line whose first
    non-blank character is `#` is a comment; a value is everything after
    the first `=`, stripped, `#` included."""
    values = {}
    for lineno, line in text_lines(path, read_file(path)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, lineno, f"expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in RunConfig.__dataclass_fields__:
            raise ParseError(path, lineno, f"unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    return values


def env_overrides(environ=None, names=tuple(RunConfig.__dataclass_fields__)) -> dict:
    """The `MESH_<KEY>` variables of `environ` (the process environment by
    default) for the RunConfig fields in `names`, each parsed as its field."""
    environ = os.environ if environ is None else environ
    values = {}
    for name in names:
        variable = f"MESH_{name.upper()}"
        if variable in environ:
            try:
                values[name] = _coerce(name, environ[variable])
            except ValueError as exc:
                raise ValueError(f"{variable}: {exc}") from None
    return values


def resolve(flag_values: dict, config_file: str | None = None, environ=None) -> RunConfig:
    """Layer profile preset, config file, environment, then flags."""
    file_values = parse_config_file(config_file) if config_file else {}
    env_values = env_overrides(environ)
    profile = (
        flag_values.get("profile")
        or env_values.get("profile")
        or file_values.get("profile")
        or "desk"
    )
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    merged: dict = {"profile": profile}
    merged.update(PROFILES[profile])
    for layer in (file_values, env_values, flag_values):
        merged.update({k: v for k, v in layer.items() if v is not None})
    merged["profile"] = profile
    if not merged.get("synthetic_seed"):
        merged["synthetic_seed"] = merged.get("seed", RunConfig.seed)
    return RunConfig(**merged)
