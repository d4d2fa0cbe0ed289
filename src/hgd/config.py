"""Run configuration for the command-line tools.

One JSON document drives every command and parses straight into the
library's own dataclasses: `hgd` into HgdConfig, `fpn` into FpnConfig,
`train` into TrainConfig, the rest into RunConfig. One key map per
section names the field each JSON key sets; a missing key takes the
field's default, the full-size reference setting. `tiny_run()` is the
pinned preset every command runs when no config file is given.

The parser checks JSON types (a value must have the type of its field's
default; numbers must be finite) and rejects unknown keys anywhere, so
typos fail loudly. Ranges and cross-field rules live once, in each
dataclass's __post_init__. Every error names its JSON path.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .decoder import HgdConfig
from .efficientfcn import TrainConfig, tiny_hgd_config, tiny_train_config
from .fpn import FpnConfig, tiny_fpn_config
from .tensor import PRECISIONS, ConfigError


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    input_size: int = 512
    num_classes: int = 60
    hgd: HgdConfig = field(default_factory=HgdConfig)
    fpn: FpnConfig = field(default_factory=FpnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    precision: str = "f32"

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise ConfigError(
                f"precision must be one of {list(PRECISIONS)}, got {self.precision!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.input_size < 32:
            raise ConfigError(f"input_size must be at least 32, got {self.input_size}")
        if self.input_size % 32:
            raise ConfigError(f"input_size must be divisible by 32, got {self.input_size}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")


def tiny_run() -> RunConfig:
    """The pinned preset every command runs without a config file: the
    synthetic task, the tiny nets and their schedule, in f64. With these
    values, seed s is hgdbench's seed s (seed rule: cli.cmd_demo_seg)."""
    return RunConfig(seed=0, input_size=64, num_classes=5, hgd=tiny_hgd_config(),
                     fpn=tiny_fpn_config(), train=tiny_train_config(), precision="f64")


# JSON key -> dataclass field, one map per section
_RUN_KEYS = {k: k for k in ("seed", "input_size", "num_classes", "precision")}
_HGD_KEYS = {"n": "n_codewords", "codeword_dim": "codeword_dim",
             "compressed": "compressed_channels", "guidance": "guidance_channels",
             "transfer": "transfer_enabled"}
_FPN_KEYS = {"n": "n_codewords", "c": "codeword_dim", "k": "k_recurrence",
             "share_params": "share_params"}
_TRAIN_KEYS = {k: k for k in ("base_lr", "power", "momentum", "weight_decay",
                              "max_iter", "batch")}
_SECTIONS = {"hgd": (HgdConfig, _HGD_KEYS), "fpn": (FpnConfig, _FPN_KEYS),
             "train": (TrainConfig, _TRAIN_KEYS)}


# ---------------------------------------------------------------- parsing

_NOUNS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string"}


def _typed(value, kind, path):
    """`value` checked against `kind`, the type of its field's default."""
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:           # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {_NOUNS[kind]}, got {value!r}")


def _check_keys(section, allowed, path):
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _build(cls, section, keys, path, **nested):
    """`cls` from the JSON object `section`, whose keys `keys` maps to fields."""
    defaults = {f.name: f.default for f in fields(cls)}
    values = {keys[key]: _typed(value, type(defaults[keys[key]]), f"{path}.{key}")
              for key, value in section.items() if key in keys}
    try:
        return cls(**values, **nested)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_run_config(doc: dict) -> RunConfig:
    _check_keys(doc, {*_RUN_KEYS, *_SECTIONS}, "config")
    nested = {}
    for name, (cls, keys) in _SECTIONS.items():
        section = doc.get(name, {})
        _check_keys(section, keys, f"config.{name}")
        nested[name] = _build(cls, section, keys, f"config.{name}")
    return _build(RunConfig, doc, _RUN_KEYS, "config", **nested)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:       # bad JSON, not UTF-8, or an over-long integer
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_run_config(doc)


def dtype_of(run: RunConfig):
    return PRECISIONS[run.precision]
