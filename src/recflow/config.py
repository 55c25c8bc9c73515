"""Run configuration: a single flat JSON document, validated strictly.

Unknown keys are rejected so typos never pass silently; CLI flags override
file values. The adversarial-loop fields follow the documented tuning grids
(rho in 1e-1/1e-2/1e-3, delta in 0.9/0.8/0.7, learning rates around 1e-4).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError


def _is_number(v):
    return type(v) in (int, float)  # bools are ints, but never a number here


# Each swept field: its scalar, its sweep list, and the range both obey.
_SWEPT = (("rho", "sweep_rho", lambda v: v >= 0, ">= 0"),
          ("delta", "sweep_delta", lambda v: 0 < v <= 1, "in (0, 1]"),
          ("mix_ratio", "sweep_mix", lambda v: v >= 0, ">= 0"))


@dataclass
class RunConfig:
    # paths
    kg_path: str = ""
    types_path: str = ""
    dialogues_path: str = ""
    val_path: str = ""
    test_path: str = ""
    out_dir: str = "out"
    # model dims
    d_e: int = 128
    rgcn_layers: int = 1
    rgcn_bases: int = 8
    flm_d_model: int = 64
    flm_layers: int = 2
    flm_heads: int = 4
    flm_ff_mult: int = 4
    # mining / sampling
    min_support: int = 5
    max_len: int = 16
    hop_limit: int = 2
    # pre-training
    rec_steps: int = 500
    rec_lr: float = 1e-3
    rec_batch: int = 64
    flm_epochs: int = 3
    flm_lr: float = 1e-3
    flm_batch: int = 16
    pseudo_ratio: int = 4
    clf_steps: int = 200
    clf_lr: float = 1e-3
    # adversarial curriculum
    courses: int = 20
    rho: float = 0.1
    delta: float = 0.9
    alpha: float = 1e-4
    rollouts: int = 8
    edit_steps: int = 3
    k_edits: int = 1
    pairs_per_course: int = 8
    sims_per_pair: int = 2
    mix_ratio: float = 1.0
    course_rec_steps: int = 50
    patience: int = 3
    temperature: float = 1.0
    # misc
    seed: int = 0
    n_simulate: int = 100
    sweep_rho: list = field(default_factory=lambda: [0.1, 0.01, 0.001])
    sweep_delta: list = field(default_factory=lambda: [0.9, 0.8, 0.7])
    sweep_mix: list = field(default_factory=lambda: [0.5, 1.0, 2.0])

    def validate(self):
        for name in ("kg_path", "types_path", "dialogues_path", "val_path",
                     "test_path", "out_dir"):
            v = getattr(self, name)
            if type(v) is not str:
                raise ConfigError(name, f"must be a string path, got {v!r}")
        if not self.out_dir:
            raise ConfigError("out_dir", "must name a directory, got ''")
        positive_ints = ("d_e", "rgcn_layers", "rgcn_bases", "flm_d_model",
                         "flm_layers", "flm_heads", "flm_ff_mult",
                         "min_support", "max_len", "hop_limit", "rec_batch",
                         "flm_epochs", "flm_batch", "clf_steps", "rollouts",
                         "edit_steps", "k_edits", "pairs_per_course",
                         "sims_per_pair", "patience", "n_simulate")
        for name in positive_ints:
            v = getattr(self, name)
            if type(v) is not int or v < 1:
                raise ConfigError(name, f"must be a positive integer, got {v!r}")
        non_negative_ints = ("rec_steps", "courses", "course_rec_steps",
                             "seed", "pseudo_ratio")
        for name in non_negative_ints:
            v = getattr(self, name)
            if type(v) is not int or v < 0:
                raise ConfigError(name, f"must be a non-negative integer, got {v!r}")
        for name in ("rec_lr", "flm_lr", "clf_lr", "alpha", "temperature"):
            v = getattr(self, name)
            if not _is_number(v) or not v > 0:
                raise ConfigError(name, f"must be positive, got {v!r}")
        for name, sweep, in_range, bound in _SWEPT:
            v = getattr(self, name)
            if not _is_number(v) or not in_range(v):
                raise ConfigError(name, f"must be {bound}, got {v!r}")
            v = getattr(self, sweep)
            if (type(v) is not list or not v
                    or not all(_is_number(x) and in_range(x) for x in v)):
                raise ConfigError(sweep, "must be a non-empty list of numbers "
                                  f"{bound}, got {v!r}")
        if self.flm_d_model % self.flm_heads:
            raise ConfigError("flm_heads", "must divide flm_d_model")
        return self

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown config key")
        return cls(**data).validate()

    @classmethod
    def load(cls, path=None, overrides=None):
        data = {}
        if path:
            try:
                fh = open(path, encoding="utf-8")
            except OSError as err:  # missing, a directory, unreadable
                raise ConfigError("<root>", f"cannot open config file "
                                  f"{path!r}: {err.strerror}") from err
            with fh:
                try:
                    data = json.load(fh)
                except ValueError as err:  # bad JSON or bad UTF-8
                    raise ConfigError("<root>",
                                      f"not valid JSON: {err}") from err
            if not isinstance(data, dict):
                raise ConfigError("<root>", "config must be a JSON object")
        if overrides:
            data.update(overrides)
        return cls.from_dict(data)

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)
