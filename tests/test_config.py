import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgd.config import RunConfig, dtype_of, load_run_config, parse_run_config
from hgd.decoder import HgdConfig
from hgd.efficientfcn import TrainConfig
from hgd.fpn import FpnConfig
from hgd.tensor import PRECISIONS, ConfigError

# the documented JSON key -> dataclass field map, per section
KEY_FIELDS = {
    None: {k: k for k in ("seed", "input_size", "num_classes", "precision")},
    "hgd": {"n": "n_codewords", "codeword_dim": "codeword_dim",
            "compressed": "compressed_channels", "guidance": "guidance_channels",
            "transfer": "transfer_enabled"},
    "fpn": {"n": "n_codewords", "c": "codeword_dim", "k": "k_recurrence",
            "share_params": "share_params"},
    "train": {k: k for k in ("base_lr", "power", "momentum", "weight_decay",
                             "max_iter", "batch")},
}


def test_defaults_mirror_reference_settings():
    run = RunConfig()
    assert run.precision == "f32"
    assert run.input_size == 512
    assert run.num_classes == 60
    assert (run.hgd.n_codewords, run.hgd.codeword_dim) == (256, 1024)
    assert (run.hgd.compressed_channels, run.hgd.guidance_channels,
            run.hgd.transfer_enabled) == (512, 1024, True)
    assert (run.fpn.n_codewords, run.fpn.codeword_dim, run.fpn.k_recurrence,
            run.fpn.share_params) == (128, 512, 4, True)
    assert run.train.max_iter == 500


def test_empty_document_gives_defaults():
    assert parse_run_config({}) == RunConfig()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys.*lr"):
        parse_run_config({"lr": 0.1})


def test_task_is_an_unknown_key():
    # the subcommand picks the demo; a config has no task
    with pytest.raises(ConfigError, match="unknown keys.*task"):
        parse_run_config({"task": "seg"})


@pytest.mark.parametrize("section,key", [("hgd", "codewords"), ("fpn", "stages"),
                                         ("train", "lr")])
def test_unknown_nested_key_rejected_with_path(section, key):
    with pytest.raises(ConfigError, match=f"config.{section}.*{key}"):
        parse_run_config({section: {key: 1}})


def test_bad_enum_values_rejected():
    with pytest.raises(ConfigError, match="precision"):
        parse_run_config({"precision": "f16"})


@pytest.mark.parametrize("doc", [{"precision": []}, {"precision": {}}, {"precision": 1}])
def test_non_string_enum_values_rejected(doc):
    key = next(iter(doc))
    with pytest.raises(ConfigError, match=f"config.{key} must be a string"):
        parse_run_config(doc)


def test_range_validation():
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config({"seed": -1})
    with pytest.raises(ConfigError, match="divisible"):
        parse_run_config({"input_size": 500})
    with pytest.raises(ConfigError, match="num_classes"):
        parse_run_config({"num_classes": 1})
    with pytest.raises(ConfigError, match="max_iter"):
        parse_run_config({"train": {"max_iter": 0}})


def test_int_fields_reject_booleans_and_strings():
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config({"seed": True})
    with pytest.raises(ConfigError, match="config.hgd.n"):
        parse_run_config({"hgd": {"n": "256"}})


def test_bool_field_rejects_integers():
    with pytest.raises(ConfigError, match="transfer"):
        parse_run_config({"hgd": {"transfer": 1}})


def test_float_fields_accept_integers():
    run = parse_run_config({"train": {"base_lr": 1}})
    assert run.train.base_lr == 1.0


@pytest.mark.parametrize("key,value", [("base_lr", math.nan), ("power", math.inf),
                                       ("momentum", -math.inf), ("weight_decay", 10 ** 400)],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
def test_float_fields_reject_non_finite(key, value):
    with pytest.raises(ConfigError, match=f"config.train.{key} must be a finite number"):
        parse_run_config({"train": {key: value}})


@pytest.mark.parametrize("key", ["base_lr", "weight_decay"])
def test_negative_learning_rate_and_decay_rejected(key):
    with pytest.raises(ConfigError, match=f"config.train: .*{key}"):
        parse_run_config({"train": {key: -1}})
    assert getattr(parse_run_config({"train": {key: 0}}).train, key) == 0.0


def test_transfer_needs_matching_dims():
    with pytest.raises(ConfigError, match="config.hgd: transfer needs guidance == codeword_dim"):
        parse_run_config({"hgd": {"guidance": 512}})
    run = parse_run_config({"hgd": {"guidance": 512, "transfer": False}})
    assert run.hgd.guidance_channels == 512


def test_dataclass_rules_hold_outside_the_parser():
    with pytest.raises(ConfigError, match="base_lr"):
        TrainConfig(base_lr=-0.1)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)


# ------------------------------------------------------- property tests

_finite = st.floats(-1e3, 1e3, allow_nan=False)
_counts = st.integers(1, 4096)


@st.composite
def valid_documents(draw):
    """A valid document: each key present or not, values inside the ranges."""
    values = {
        None: {"seed": st.integers(0, 2 ** 40),
               "input_size": st.integers(1, 64).map(lambda m: 32 * m),
               "num_classes": st.integers(2, 300),
               "precision": st.sampled_from(["f32", "f64"])},
        "hgd": {"n": _counts, "codeword_dim": _counts, "compressed": _counts,
                "guidance": _counts, "transfer": st.booleans()},
        "fpn": {"n": _counts, "c": _counts, "k": st.integers(1, 16),
                "share_params": st.booleans()},
        "train": {"base_lr": st.floats(0, 10) | st.integers(0, 10),
                  "power": st.floats(1e-3, 5), "momentum": _finite,
                  "weight_decay": st.floats(0, 1), "max_iter": st.integers(1, 10 ** 6),
                  "batch": st.integers(1, 64)},
    }
    doc = {}
    for section, keys in values.items():
        target = doc if section is None else {}
        for key, strategy in keys.items():
            if draw(st.booleans()):
                target[key] = draw(strategy)
        if section is not None and (target or draw(st.booleans())):
            doc[section] = target
    hgd = doc.get("hgd", {})
    if hgd.get("transfer", True) and ("codeword_dim" in hgd or "guidance" in hgd):
        # transfer needs both widths equal: set both to one drawn width
        hgd["codeword_dim"] = hgd["guidance"] = draw(_counts)
    return doc


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_key_map_round_trips_every_field(doc):
    run = parse_run_config(doc)
    defaults = {None: RunConfig(), "hgd": HgdConfig(), "fpn": FpnConfig(),
                "train": TrainConfig()}
    for section, key_fields in KEY_FIELDS.items():
        built = run if section is None else getattr(run, section)
        given_values = doc if section is None else doc.get(section, {})
        for key, name in key_fields.items():
            want = given_values.get(key, getattr(defaults[section], name))
            got = getattr(built, name)
            assert got == want and type(got) is type(getattr(defaults[section], name))
    # fields without a JSON key keep their defaults
    assert run.fpn.output_channels == FpnConfig().output_channels
    assert run.hgd.fused_scales == HgdConfig().fused_scales


_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2, 600)
                | st.floats() | st.text(max_size=6)
                | st.sampled_from(["seg", "fpn", "f32", "f64"]))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _with_unknown(keys):
    return st.sampled_from(sorted(keys)) | st.text(max_size=6)


_fuzz_documents = st.dictionaries(
    _with_unknown([*KEY_FIELDS[None], "hgd", "fpn", "train"]),
    _json_values | st.one_of(*[st.dictionaries(_with_unknown(KEY_FIELDS[s]), _json_values,
                                               max_size=5)
                               for s in ("hgd", "fpn", "train")]),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(_fuzz_documents)
def test_parse_returns_run_config_or_raises_config_error(doc):
    try:
        run = parse_run_config(doc)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    assert all(math.isfinite(v) for v in dataclasses.astuple(run.train))


def test_dtype_selection():
    assert dtype_of(RunConfig(precision="f32")) is np.float32
    assert dtype_of(RunConfig(precision="f64")) is np.float64


@pytest.mark.parametrize("name", ["f16", "F32", "float32", "fp64", ""])
def test_precision_names_are_the_table_names(name):
    for known, dtype in PRECISIONS.items():
        assert dtype_of(RunConfig(precision=known)) is dtype
    with pytest.raises(ConfigError, match=re.escape(f"must be one of {list(PRECISIONS)}")):
        RunConfig(precision=name)


def test_load_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "precision": "f64"}))
    run = load_run_config(path)
    assert run.seed == 7
    assert run.precision == "f64"


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_run_config(path)
