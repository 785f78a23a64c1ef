"""Run configuration: YAML schema, validation, object construction.

The config is a key-tree with sections law / bounds / plan / confidence /
entropy / output, declared once in ``_TABLE``.  Unknown keys, wrong
types and values outside a key's allowed set or range are rejected.  Every
emitted file carries the config hash so runs are traceable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, NamedTuple, Optional

import yaml

from .distribution import MdtParams, make_mdt
from .entropy import FieldModel
from .errors import ConfigError
from .slowvary import parse_sv


class _Key(NamedTuple):
    types: tuple            # accepted types of the value, matched exactly
    default: object
    items: tuple = ()       # accepted types of each element of a list value
    choices: tuple = ()     # the allowed values, when the set is closed
    range: tuple = ()       # (lo, hi, closed): lo <= value <= hi when closed,
                            # else lo < value < hi; None always passes


_NUM = (int, float)
_OPT_NUM = (int, float, type(None))

_TABLE = {
    "law.beta": _Key(_NUM, 4.0),
    "law.gamma": _Key(_NUM, 0.0),
    "law.V": _Key((str,), "c(1)"),
    "law.u_star": _Key(_OPT_NUM, None),
    "bounds.mode": _Key((str,), "pessimistic",
                        choices=("pessimistic", "calibrated")),
    "bounds.c1": _Key(_OPT_NUM, None, range=(0, math.inf, False)),
    "bounds.calibration_slack_dkw": _Key(_NUM, 2.0, range=(0, math.inf, True)),
    "plan.n_grid": _Key((list,), [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
                        items=(int,)),
    "plan.reps": _Key((int,), 100000, range=(1000, math.inf, True)),
    "plan.seed": _Key((int,), 1, range=(0, math.inf, True)),
    "plan.u_points": _Key((int,), 64),
    "plan.u_min": _Key(_OPT_NUM, None),
    "plan.u_max": _Key(_OPT_NUM, None),
    "plan.dkw_delta": _Key(_NUM, 1e-3, range=(0, 1, False)),
    "plan.budget": _Key((int,), 10 ** 9, range=(1, math.inf, True)),
    "plan.threads": _Key((int,), 1, range=(1, math.inf, True)),
    "confidence.delta": _Key(_NUM, 1e-3, range=(0, 1, False)),
    "confidence.n": _Key((int,), 10000, range=(1, math.inf, True)),
    "entropy.weights": _Key((list,), [1.0, 0.5, 0.25], items=_NUM),
    "entropy.M": _Key((int,), 64),
    "output.dir": _Key((str,), "out"),
}


def _check(name: str, val) -> None:
    key = _TABLE.get(name)
    if key is None:
        raise ConfigError(f"unknown config key '{name}'")
    # exact matches, so a YAML bool (an int subclass) is never a number
    if type(val) not in key.types:
        raise ConfigError(f"config key '{name}' has wrong type {type(val).__name__}")
    if key.items and any(type(x) not in key.items for x in val):
        raise ConfigError(f"config key '{name}' has an element of wrong type: {val!r}")
    if key.choices and val not in key.choices:
        raise ConfigError(
            f"config key '{name}' must be one of {', '.join(key.choices)}; got {val!r}")
    if key.range and val is not None:
        lo, hi, closed = key.range
        if not (lo <= val <= hi if closed else lo < val < hi):
            span = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
            raise ConfigError(f"config key '{name}' must lie in {span}; got {val!r}")


def _validate(tree) -> None:
    if not isinstance(tree, dict):
        raise ConfigError("section '<root>' must be a mapping")
    sections = {name.split(".")[0] for name in _TABLE}
    for section, body in tree.items():
        if section not in sections:
            raise ConfigError(f"unknown config key '{section}'")
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key, val in body.items():
            _check(f"{section}.{key}", val)
    # keys that another bounds key makes dead are rejected, not ignored
    bounds = tree.get("bounds", {})
    calibrating = bounds.get("mode") == "calibrated"
    if calibrating and bounds.get("c1") is not None:
        raise ConfigError("config key 'bounds.mode': calibrated is ignored "
                          "when bounds.c1 is given")
    if "calibration_slack_dkw" in bounds and not (
            calibrating and bounds.get("c1") is None):
        raise ConfigError("config key 'bounds.calibration_slack_dkw' is read "
                          "only with bounds.mode calibrated and no bounds.c1")


def _fill(given: Dict) -> Dict:
    raw: Dict = {}
    for name, key in _TABLE.items():
        section, leaf = name.split(".")
        val = given.get(section, {}).get(leaf, key.default)
        raw.setdefault(section, {})[leaf] = copy.deepcopy(val)
    return raw


@dataclass(frozen=True, eq=False)
class RunConfig:
    raw: Dict = dc_field(repr=False, default_factory=dict)

    @classmethod
    def load(cls, path: Optional[str]) -> "RunConfig":
        if path is None:
            given = {}
        else:
            try:
                with open(path) as fh:
                    given = yaml.safe_load(fh) or {}
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {path}") from exc
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        _validate(given)
        cfg = cls(raw=_fill(given))
        cfg.params()  # fail early on bad law parameters
        return cfg

    def override(self, **kwargs) -> "RunConfig":
        merged = json.loads(json.dumps(self.raw))
        for key, val in kwargs.items():
            if val is None:
                continue
            section, name = key.split("__")
            _check(f"{section}.{name}", val)
            merged[section][name] = val
        return RunConfig(raw=merged)

    def digest(self) -> str:
        # threads and budget change scheduling, never results, so they
        # stay out of the hash and reruns remain byte-identical
        tree = json.loads(json.dumps(self.raw))
        tree["plan"].pop("threads", None)
        tree["plan"].pop("budget", None)
        return hashlib.sha256(
            json.dumps(tree, sort_keys=True).encode()).hexdigest()[:16]

    def params(self) -> MdtParams:
        law = self.raw["law"]
        try:
            v = parse_sv(law["V"])
        except Exception as exc:
            raise ConfigError(f"law.V: {exc}") from exc
        try:
            return make_mdt(law["beta"], law["gamma"], v, law["u_star"])
        except Exception as exc:
            raise ConfigError(f"law: {exc}") from exc

    def field_model(self) -> FieldModel:
        ent = self.raw["entropy"]
        weights = tuple(float(w) for w in ent["weights"])
        return FieldModel(params=self.params(), weights=weights, resolution=ent["M"])

    def header_lines(self) -> str:
        law = self.raw["law"]
        return (f"# config_hash={self.digest()} seed={self.raw['plan']['seed']}\n"
                f"# law: beta={law['beta']} gamma={law['gamma']} V={law['V']}\n")
