"""Run configuration: a strict JSON document with four sections (task, data,
train, anchors) plus an output directory.

Unknown keys are rejected at every level, every default is materialized on
load, and the resolved form round-trips losslessly, so the config.json echoed
into a run directory reproduces the run exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .data import TaskSpec, generate
from .distributions import AnchorSet, default_anchor_set, make_distribution

__all__ = [
    "ConfigError",
    "TaskSection",
    "DataSection",
    "TrainSection",
    "AnchorSection",
    "RunConfig",
    "default_config",
    "load_config",
]

DISTRIBUTION_CHOICES = ("consist", "uniform", "inverse", "gaussian", "gaussian-inverse")


class ConfigError(ValueError):
    """Invalid or malformed run configuration (CLI exit code 2)."""


def _take(obj: dict, section: str, cls):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    known = {f.name for f in fields(cls)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


@dataclass(frozen=True)
class TaskSection:
    k: int = 10
    d: int = 16
    spread: float = 4.0
    noise: float = 1.0
    seed: int | None = None  # None: follow the training seed

    def spec(self, fallback_seed: int) -> TaskSpec:
        return TaskSpec(k=self.k, d=self.d, spread=self.spread, noise=self.noise,
                        seed=self.seed if self.seed is not None else fallback_seed)


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
        for name in ("labeled_kind", "unlabeled_kind"):
            if getattr(self, name) not in DISTRIBUTION_CHOICES:
                raise ConfigError(f"{name} must be one of {DISTRIBUTION_CHOICES}")
        if self.labeled_max < 1 or self.unlabeled_max < 0 or self.test_per_class < 1:
            raise ConfigError("split sizes must be positive (unlabeled_max may be 0)")


@dataclass(frozen=True)
class TrainSection:
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
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if self.estimation_epochs is not None and not 0 <= self.estimation_epochs <= self.epochs:
            raise ConfigError("estimation_epochs must lie in [0, epochs]")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.output_pseudo_source not in ("self", "expansive"):
            raise ConfigError("output_pseudo_source must be 'self' or 'expansive'")
        if not 0.0 < self.rho_floor < self.rho_max <= 1.0:
            raise ConfigError("need 0 < rho_floor < rho_max <= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def resolved_estimation_epochs(self) -> int:
        if self.estimation_epochs is not None:
            return self.estimation_epochs
        return max(1, round(0.1 * self.epochs))


@dataclass(frozen=True)
class AnchorSection:
    gamma: float = 100.0
    as_variance: bool = False

    def build(self, k: int) -> AnchorSet:
        return default_anchor_set(k, gamma=self.gamma, as_variance=self.as_variance)


@dataclass(frozen=True)
class RunConfig:
    task: TaskSection = field(default_factory=TaskSection)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    anchors: AnchorSection = field(default_factory=AnchorSection)
    output_dir: str | None = None

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        known = {"task", "data", "train", "anchors", "output_dir"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
        out_dir = obj.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output_dir must be a string path")
        return cls(
            task=_take(obj.get("task", {}), "task", TaskSection),
            data=_take(obj.get("data", {}), "data", DataSection),
            train=_take(obj.get("train", {}), "train", TrainSection),
            anchors=_take(obj.get("anchors", {}), "anchors", AnchorSection),
            output_dir=out_dir,
        )

    def to_json_obj(self) -> dict:
        """Fully resolved form: every default materialized, derived values
        (task seed, estimation epochs) spelled out."""
        task = {"k": self.task.k, "d": self.task.d, "spread": self.task.spread,
                "noise": self.task.noise,
                "seed": self.task.seed if self.task.seed is not None else self.train.seed}
        data = {f.name: getattr(self.data, f.name) for f in fields(DataSection)}
        train = {f.name: getattr(self.train, f.name) for f in fields(TrainSection)}
        train["hidden"] = list(self.train.hidden)
        train["estimation_epochs"] = self.train.resolved_estimation_epochs()
        anchors = {"gamma": self.anchors.gamma, "as_variance": self.anchors.as_variance}
        return {"task": task, "data": data, "train": train, "anchors": anchors,
                "output_dir": self.output_dir}

    def config_hash(self) -> str:
        """SHA-256 of the resolved form without ``output_dir``: where a run is
        written does not change the experiment."""
        obj = self.to_json_obj()
        del obj["output_dir"]
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def with_overrides(self, seed: int | None = None, output_dir: str | None = None) -> "RunConfig":
        cfg = self
        if seed is not None:
            train = {f.name: getattr(cfg.train, f.name) for f in fields(TrainSection)}
            train["seed"] = seed
            cfg = RunConfig(task=cfg.task, data=cfg.data, train=TrainSection(**train),
                            anchors=cfg.anchors, output_dir=cfg.output_dir)
        if output_dir is not None:
            cfg = RunConfig(task=cfg.task, data=cfg.data, train=cfg.train,
                            anchors=cfg.anchors, output_dir=output_dir)
        return cfg

    def build_dataset(self):
        task = self.task.spec(self.train.seed)
        labeled = make_distribution(self.data.labeled_kind, task.k, self.data.labeled_max,
                                    gamma=self.data.labeled_gamma,
                                    as_variance=self.anchors.as_variance)
        if self.data.unlabeled_max == 0:
            unlabeled = np.zeros(task.k, dtype=np.int64)
        else:
            unlabeled = make_distribution(self.data.unlabeled_kind, task.k,
                                          self.data.unlabeled_max,
                                          gamma=self.data.unlabeled_gamma,
                                          as_variance=self.anchors.as_variance)
        return generate(task, labeled, unlabeled, self.data.test_per_class)


def default_config() -> RunConfig:
    return RunConfig()


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return RunConfig.from_json_obj(obj)
