"""RunConfig: the JSON round trip and the hash, over generated documents,
and the sections as the one source of the training and anchor constants."""

import importlib
import inspect
import json
import math
import pkgutil
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imbalanced_ssl
from imbalanced_ssl.config import (MAX_ARRAY_VALUES, AnchorSection, ConfigError, RunConfig,
                                   TrainSection)
from imbalanced_ssl.distributions import SHAPES
from imbalanced_ssl.losses import LOSS_COLUMNS
from imbalanced_ssl.trainer import metrics_columns

SECTIONS = {f.name: f.default_factory for f in fields(RunConfig) if f.name != "output_dir"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# what a loaded field holds, by its annotation
HOLDS = {
    "float": lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
}

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4)


def _valid(annotation, default):
    """Values of the field's type, mostly in range."""
    return {
        "float": st.one_of(st.just(default), st.floats(0.0, 1.0), st.floats(1.0, 500.0),
                           st.integers(0, 500)),
        "int": st.one_of(st.just(default), st.integers(-1, 300)),
        "int | None": st.one_of(st.none(), st.integers(-1, 300)),
        "bool": st.booleans(),
        "str": st.sampled_from([default, *SHAPES, "self", "expansive"]),
        "tuple[int, ...]": st.lists(st.integers(-1, 128), max_size=3),
    }[annotation]


def _wrong():
    """Values of any type, non-finite floats and integers no 64-bit field holds."""
    return st.one_of(_JSON, st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1))


def _rarely(draw):
    # hypothesis shrinks integers toward 0, so the rare case is the top one
    return draw(st.integers(0, 9)) == 9


@st.composite
def _section(draw, cls):
    """A section object: clean (its fields of the right type) or mixed
    (wrong types, non-finite numbers and now and then an unknown key)."""
    clean = draw(st.booleans())
    defaults = cls()
    obj = {}
    for f in fields(cls):
        if draw(st.booleans()):
            value = _valid(f.type, getattr(defaults, f.name))
            obj[f.name] = draw(value if clean else st.one_of(value, value, _wrong()))
    if not clean and _rarely(draw):
        obj[draw(st.text(min_size=1, max_size=3))] = draw(_JSON)
    return obj


@st.composite
def _document(draw):
    """A config document of generated sections, now and then with a bad
    ``output_dir`` or an unknown top-level key."""
    obj = {name: draw(_section(cls)) for name, cls in SECTIONS.items() if draw(st.booleans())}
    if draw(st.booleans()):
        obj["output_dir"] = draw(st.one_of(st.text(max_size=4), st.none()))
    if _rarely(draw):
        obj["output_dir"] = draw(_JSON)
    if _rarely(draw):
        obj[draw(st.text(max_size=3))] = draw(_JSON)
    return obj


def _text(config):
    return json.dumps(config.to_json_obj(), sort_keys=True)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_document())
def test_config_round_trip_and_hash_are_stable(obj):
    """A document either is a ConfigError or loads into a config whose
    fields hold their annotated types, whose resolved form reloads to the
    same text and hash, and whose hash ignores ``output_dir``."""
    try:
        config = RunConfig.from_json_obj(obj)
    except ConfigError:
        return
    for name in SECTIONS:
        section = getattr(config, name)
        for f in fields(section):
            assert HOLDS[f.type](getattr(section, f.name)), (name, f.name)
    back = RunConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj())))
    assert _text(back) == _text(config)
    assert back.config_hash() == config.config_hash()
    assert replace(config, output_dir="elsewhere").config_hash() == config.config_hash()


@pytest.mark.parametrize("epochs,steps_per_epoch", [(2, MAX_ARRAY_VALUES // len(LOSS_COLUMNS)),
                                                    (10**9, 10**9)])
def test_step_count_is_bounded(epochs, steps_per_epoch):
    # a run holds one losses.csv row per step until it ends, so the step
    # count is capped like every other config-sized array, naming both fields
    most = MAX_ARRAY_VALUES // len(LOSS_COLUMNS)
    RunConfig.from_json_obj({"train": {"epochs": 1, "steps_per_epoch": most}})
    with pytest.raises(ConfigError) as err:
        RunConfig.from_json_obj({"train": {"epochs": epochs, "steps_per_epoch": steps_per_epoch}})
    assert "train.epochs x train.steps_per_epoch" in str(err.value)


def test_metrics_record_is_bounded():
    # the metrics record, one metrics.csv row per epoch and the widest
    # per-epoch record, is allocated before the first step and capped the
    # same way: at K = 2000 a row holds 8,015 values
    width = len(metrics_columns(2000))
    obj = {"task": {"k": 2000},
           "data": {"labeled_max": 1, "unlabeled_max": 1, "test_per_class": 1},
           "train": {"steps_per_epoch": 1}}
    most = MAX_ARRAY_VALUES // width
    RunConfig.from_json_obj({**obj, "train": {"epochs": most, "steps_per_epoch": 1}})
    for epochs in (most + 1, 10**6):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_json_obj({**obj, "train": {"epochs": epochs, "steps_per_epoch": 1}})
        assert str(err.value).startswith(
            f"train.epochs rows of {width} metrics.csv columns size an array of "
            f"{epochs * width} float64 values")


SECTION_FIELDS = {f.name for section in (TrainSection, AnchorSection) for f in fields(section)}


def _package_modules():
    """Every module of the package but config, where the constants live."""
    for info in pkgutil.iter_modules(imbalanced_ssl.__path__):
        if info.name != "config":
            yield importlib.import_module(f"imbalanced_ssl.{info.name}")


def _callables(module):
    """(qualified name, object) of each function and class the module
    defines, and of each class's methods."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_parameter_defaults_a_section_field():
    # a keyword default named after a TrainSection or AnchorSection field
    # would be a second copy of the section's default, unchecked by it
    repeated = []
    for module in _package_modules():
        for where, obj in _callables(module):
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            repeated += [f"{where}({p.name}={p.default!r})" for p in params
                         if p.name in SECTION_FIELDS and p.default is not p.empty]
    assert not repeated, repeated


def test_no_dataclass_copies_a_train_field():
    # a run's per-object state holds only what changes; a constant such as
    # learning_rate or alpha is read off the TrainSection (or a plan holding it)
    train_fields = {f.name for f in fields(TrainSection)}
    copied = [f"{where}.{f.name}" for module in _package_modules()
              for where, obj in _callables(module) if is_dataclass(obj)
              for f in fields(obj) if f.name in train_fields]
    assert not copied, copied


def test_no_module_constant_names_a_section_field():
    # e.g. a DEFAULT_ALPHA next to TrainSection.alpha
    repeated = [f"{module.__name__}.{name}" for module in _package_modules()
                for name in vars(module)
                if name.isupper() and name.lower().removeprefix("default_") in SECTION_FIELDS]
    assert not repeated, repeated
