"""Sectioned key=value run configuration with strict validation.

The format is deliberately flat: `[section]` headers, `key = value`
lines, `#` comments. Unknown sections or keys are errors, every
diagnostic carries a line number, and a resolved config re-parses to an
identical structure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .core import BoundaryData, GridSpec, PhysParams, PRESETS
from .solver import TimeConfig
from .sweep import check_settings, default_bl_tol


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "grid": {"n_cells": int},
    "physics": {"lambda": float, "mu": float, "nu": float, "gamma": float,
                "c_v": float, "kappa1": float, "kappa2": float, "q": float},
    "initial": {"preset": str},
    "boundary": {"preset": str, "amplitude": float, "ramp_period": float},
    "time": {"t_end": float, "cfl": float, "dt_max": float, "dt_min": float,
             "snapshot_stride": int},
    "sweep": {"mu_values": str, "bl_tol": float, "interior_deltas": str},
}

_DEFAULTS = {
    "grid": {},
    "physics": {"lambda": 1.0, "mu": 0.1, "nu": 1.0, "gamma": 1.4,
                "c_v": 1.0, "kappa1": 1.0, "kappa2": 0.0, "q": 2.0},
    "initial": {"preset": "uniform"},
    "boundary": {"preset": "zero", "amplitude": 1.0, "ramp_period": 0.25},
    "time": {"cfl": 0.4, "dt_max": 1e-2, "dt_min": 1e-10,
             "snapshot_stride": 1},
    "sweep": {"mu_values": "1e-2,1e-3,1e-4,1e-5",
              "interior_deltas": "0.05,0.1,0.2"},
}

_REQUIRED = {"grid": ("n_cells",), "time": ("t_end",)}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration, one attribute group per section."""

    raw: Dict[str, Dict[str, object]]

    def __getitem__(self, section: str) -> Dict[str, object]:
        return self.raw[section]

    # each key of these sections is a field of its type, except that
    # physics.lambda is the argument lam

    def grid_spec(self) -> GridSpec:
        return GridSpec(**self.raw["grid"])

    def phys_params(self) -> PhysParams:
        p = dict(self.raw["physics"])
        return PhysParams(lam=p.pop("lambda"), **p)

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(**self.raw["boundary"])

    def time_config(self) -> TimeConfig:
        return TimeConfig(**self.raw["time"])

    def _floats(self, key: str) -> Tuple[float, ...]:
        try:
            return tuple(map(float, str(self.raw["sweep"][key]).split(",")))
        except ValueError:
            raise ValueError(f"{key} must be a comma list of floats") from None

    def mu_values(self) -> Tuple[float, ...]:
        return self._floats("mu_values")

    def interior_deltas(self) -> Tuple[float, ...]:
        return self._floats("interior_deltas")

    def bl_tol(self) -> float:
        """sweep.bl_tol if given, else SweepPlan's default_bl_tol."""
        return self.raw["sweep"].get("bl_tol", default_bl_tol(
            self.raw["boundary"]["amplitude"]))


def parse_config(text: str,
                 overrides: Iterable[Tuple[str, str, object, str]] = ()
                 ) -> RunConfig:
    """Parse and validate, resolving all defaults.

    overrides holds (section, key, value, source) entries, such as the
    command-line flags: each value replaces the text's before validation,
    and an error on that key names its source instead of a line.
    """
    values: Dict[str, Dict[str, object]] = {s: dict(d)
                                            for s, d in _DEFAULTS.items()}
    # where each given key was set: "line N" or an override's source
    seen: Dict[str, Dict[str, str]] = {s: {} for s in _SCHEMA}
    section: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section "
                                  f"[{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got "
                              f"{line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key "
                              f"{section}.{key}")
        if key in seen[section]:
            raise ConfigError(f"line {lineno}: duplicate key "
                              f"{section}.{key} (first at "
                              f"{seen[section][key]})")
        seen[section][key] = f"line {lineno}"
        typ = _SCHEMA[section][key]
        try:
            values[section][key] = typ(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: {section}.{key} must be "
                              f"{typ.__name__}, got {val!r}") from None
    for section, key, value, source in overrides:
        values[section][key] = value
        seen[section][key] = source
    for section, keys in _REQUIRED.items():
        for key in keys:
            if key not in values[section]:
                raise ConfigError(f"missing required key {section}.{key}")
    _validate(values, seen)
    return RunConfig(raw=values)


def _validate(values, seen):
    """Build each section through the type that owns its rules, and
    report the first broken rule, key first, at its line or flag."""
    def bad(section, key, problem):
        source = seen[section].get(key)
        where = f"{source}: " if source is not None else ""
        return ConfigError(f"{where}{section}.{key} {problem}")

    if values["initial"]["preset"] not in PRESETS:
        raise bad("initial", "preset", f"must be one of {PRESETS}")
    cfg = RunConfig(raw=values)
    for section, build in (("grid", cfg.grid_spec),
                           ("physics", cfg.phys_params),
                           ("boundary", cfg.boundary_data),
                           ("time", cfg.time_config),
                           ("sweep", lambda: check_settings(
                               cfg.mu_values(), cfg.bl_tol(),
                               cfg.interior_deltas(), cfg.grid_spec()))):
        try:
            build()
        except ValueError as exc:
            name, problem = str(exc).split(" ", 1)
            key = "lambda" if name == "lam" else name   # the one rename
            raise bad(section, key, problem) from None


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; re-parsing yields an identical structure."""
    lines = []
    for section in _SCHEMA:
        lines.append(f"[{section}]")
        for key in _SCHEMA[section]:
            if key not in cfg.raw[section]:
                continue
            val = cfg.raw[section][key]
            if isinstance(val, float):
                val = f"{val:.17g}"
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()[:12]
