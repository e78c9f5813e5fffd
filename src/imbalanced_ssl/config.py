"""Run configuration: a strict JSON document of the sections named in
``_SECTIONS`` plus an output directory.

Unknown keys are rejected at every level, every default is materialized on
load, and the resolved form round-trips losslessly, so the config.json echoed
into a run directory reproduces the run exactly.  Each section checks the
type of every field when it is built, by its annotation (see ``_TYPES``), and
the error names the field.  So a NaN, an infinity, a fractional count or a
string for a bool never reaches training, from a config file (read like every
other input, by a plain JSON reader), a run's config.json or the Python API.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .control import VIEWS, _block_rows
from .data import generate
from .distributions import SHAPES, AnchorSet, default_anchor_set, make_distribution
from .losses import LOSS_COLUMNS

__all__ = [
    "ConfigError",
    "TaskSection",
    "DataSection",
    "TrainSection",
    "AnchorSection",
    "RunConfig",
]

class ConfigError(ValueError):
    """Invalid or malformed run configuration (CLI exit code 2)."""


# The most float64 values that any one array sized by the config (k, d, the
# split sizes, the layer widths, the batch sizes, the step count) may hold:
# 2**24, 128 MiB.
# The largest such array of the bundled workloads, eval-heavy's test split
# (10,000 rows of 16 features, which the trainer holds), holds 160,000.
MAX_ARRAY_VALUES = 2**24


def _take(obj: dict, section: str, cls):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


def _is_int(value) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and -2**63 <= value < 2**63)


# each field annotation's check, with what the field takes
_TYPES = {
    "float": (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
              "a finite number"),
    "int": (_is_int, "a 64-bit integer"),
    "int | None": (lambda v: v is None or _is_int(v), "a 64-bit integer or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of 64-bit integers"),
}


def _check_types(section) -> None:
    for f in fields(section):
        value = getattr(section, f.name)
        ok, takes = _TYPES[f.type]
        if not ok(value):
            raise ConfigError(f"{f.name} must be {takes}, got {value!r}")


@dataclass(frozen=True)
class TaskSection:
    """Geometry of the synthetic task: K classes in D dims.  ``spread``
    scales the unit-direction class centers; ``noise`` is the isotropic
    per-class standard deviation and also the base scale of the augmentation
    operators."""

    k: int = 10
    d: int = 16
    spread: float = 4.0
    noise: float = 1.0
    seed: int | None = None  # None: follow the training seed

    def __post_init__(self) -> None:
        _check_types(self)
        if self.k < 2 or self.d < 2:
            raise ConfigError("k and d must be >= 2")
        if not (self.spread > 0.0 and self.noise > 0.0):
            raise ConfigError("spread and noise must be > 0")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0 or null, got {self.seed}")


@dataclass(frozen=True)
class DataSection:
    labeled_kind: str = "consist"
    labeled_gamma: float = 100.0
    labeled_max: int = 100
    unlabeled_kind: str = "inverse"
    unlabeled_gamma: float = 100.0
    unlabeled_max: int = 500
    test_per_class: int = 100

    def __post_init__(self) -> None:
        _check_types(self)
        for name in ("labeled_kind", "unlabeled_kind"):
            if getattr(self, name) not in SHAPES:
                raise ConfigError(f"{name} must be one of {tuple(SHAPES)}")
        if min(self.labeled_gamma, self.unlabeled_gamma) < 1.0:
            raise ConfigError("labeled_gamma and unlabeled_gamma (max/min ratios) must be >= 1")
        for name in ("labeled_max", "unlabeled_max", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainSection:
    """The training, controller and probe constants.  This section is the one
    place each is written and range-checked; the modules take them from it."""

    epochs: int = 60
    steps_per_epoch: int = 180
    estimation_epochs: int | None = None  # None: 10% of epochs, at least 1
    labeled_batch: int = 64
    unlabeled_batch: int = 128
    learning_rate: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 0.0005
    tau_b: float = 2.0
    tau_e: float = 4.0
    lambda_u: float = 2.0
    lambda_basic: float = 1.0
    rho_max: float = 0.95
    rho_floor: float = 0.5
    alpha: float = 0.005
    nu: float = 1.0
    weak_strength: float = 0.25
    strong_strength: float = 1.0
    dropout: float = 0.2
    hidden: tuple[int, ...] = (64, 64)
    feature: int = 32
    reweight_unlabeled: bool = False
    output_pseudo_source: str = "self"
    probe_size: int = 256
    probe_n_aug: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self)
        for name in ("epochs", "steps_per_epoch", "labeled_batch", "unlabeled_batch",
                     "probe_size", "probe_n_aug"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.estimation_epochs is not None and not 0 <= self.estimation_epochs <= self.epochs:
            raise ConfigError("estimation_epochs must lie in [0, epochs]")
        if self.output_pseudo_source not in ("self", "expansive"):
            raise ConfigError("output_pseudo_source must be 'self' or 'expansive'")
        if not 0.0 < self.rho_floor < self.rho_max <= 1.0:
            raise ConfigError("need 0 < rho_floor < rho_max <= 1")
        for name in ("learning_rate", "alpha"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("momentum", "dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        for name in ("weak_strength", "strong_strength", "tau_b", "tau_e", "lambda_u",
                     "lambda_basic", "weight_decay", "seed"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.feature < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("layer widths (hidden, feature) must be >= 1")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def resolved_estimation_epochs(self) -> int:
        if self.estimation_epochs is not None:
            return self.estimation_epochs
        return max(1, round(0.1 * self.epochs))


@dataclass(frozen=True)
class AnchorSection:
    gamma: float = 100.0
    as_variance: bool = False

    def __post_init__(self) -> None:
        _check_types(self)
        if self.gamma < 1.0:
            raise ConfigError(f"gamma (a max/min ratio) must be >= 1, got {self.gamma}")

    def build(self, k: int) -> AnchorSet:
        return default_anchor_set(k, gamma=self.gamma, as_variance=self.as_variance)


_SECTIONS = {"task": TaskSection, "data": DataSection, "train": TrainSection,
             "anchors": AnchorSection}


@dataclass(frozen=True)
class RunConfig:
    task: TaskSection = field(default_factory=TaskSection)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    anchors: AnchorSection = field(default_factory=AnchorSection)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        for what, values in self._array_sizes():
            if values > MAX_ARRAY_VALUES:
                raise ConfigError(f"{what} size an array of {values} float64 values, "
                                  f"more than the {MAX_ARRAY_VALUES} one array may hold")

    def _array_sizes(self):
        """(the fields, float64 values) of each array a run allocates whose
        size the config sets: the layer weights; each split at its largest,
        of ``task.d`` inputs and of ``predict``'s one row per view; the
        classes, the step's batch and one inference block at every layer
        width, the stacked logits included; and the two widest records that
        ``train`` allocates before the first step: the loss record, one row
        of losses.csv columns per step, and the metrics record, one row of
        metrics.csv columns per epoch."""
        from .trainer import metrics_columns  # the trainer imports this module
        k, t, data = self.task.k, self.train, self.data
        widths = [("task.d", self.task.d),
                  *((f"train.hidden[{i}]", h) for i, h in enumerate(t.hidden)),
                  ("train.feature", t.feature), ("3 heads x task.k", 3 * k)]
        for (a, fan_in), (b, fan_out) in zip(widths, widths[1:]):
            yield f"{a} and {b}", fan_in * fan_out
        # a split is drawn and predicted whole, but forwarded in blocks
        for a, n in [("task.k x data.labeled_max", k * data.labeled_max),
                     ("task.k x data.unlabeled_max", k * data.unlabeled_max),
                     ("task.k x data.test_per_class", k * data.test_per_class)]:
            yield f"{a} rows of task.d", n * self.task.d
            yield f"{a} rows of {len(VIEWS)} views", n * len(VIEWS)
        block = _block_rows([*t.hidden, t.feature], k)
        rows = [("task.k", k),
                ("train.labeled_batch + 2 x train.unlabeled_batch",
                 t.labeled_batch + 2 * t.unlabeled_batch),
                (f"an inference block's {block}", block)]
        for a, n in rows:
            for b, width in widths:
                yield f"{a} rows of {b}", n * width
        yield (f"train.epochs x train.steps_per_epoch rows of {len(LOSS_COLUMNS)} losses.csv "
               "columns", t.epochs * t.steps_per_epoch * len(LOSS_COLUMNS))
        width = len(metrics_columns(k))
        yield f"train.epochs rows of {width} metrics.csv columns", t.epochs * width

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(obj) - {*_SECTIONS, "output_dir"}
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
        out_dir = obj.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output_dir must be a string path")
        return cls(**{name: _take(obj.get(name, {}), name, section)
                      for name, section in _SECTIONS.items()}, output_dir=out_dir)

    def to_json_obj(self) -> dict:
        """Fully resolved form: every default materialized, derived values
        (task seed, estimation epochs) spelled out."""
        obj = dataclasses.asdict(self)
        obj["task"] = dataclasses.asdict(self.resolved_task())
        obj["train"]["estimation_epochs"] = self.train.resolved_estimation_epochs()
        return obj

    def config_hash(self) -> str:
        """SHA-256 of the resolved form without ``output_dir``: where a run is
        written does not change the experiment."""
        obj = self.to_json_obj()
        del obj["output_dir"]
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def resolved_task(self) -> TaskSection:
        """The task with its seed resolved: None follows the training seed."""
        return replace(self.task, seed=self.train.seed if self.task.seed is None
                       else self.task.seed)

    def build_dataset(self):
        task = self.resolved_task()
        labeled = make_distribution(self.data.labeled_kind, task.k, self.data.labeled_max,
                                    gamma=self.data.labeled_gamma,
                                    as_variance=self.anchors.as_variance)
        unlabeled = make_distribution(self.data.unlabeled_kind, task.k, self.data.unlabeled_max,
                                      gamma=self.data.unlabeled_gamma,
                                      as_variance=self.anchors.as_variance)
        return generate(task, labeled, unlabeled, self.data.test_per_class)

