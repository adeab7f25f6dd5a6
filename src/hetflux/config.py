"""Declarative experiment configuration: INI parsing, validation, echo.

One config file describes one experiment. Sections:

    [flux]        family = quadratic | two_state | heterogeneous_quadratic | lwr
                  plus that family's numeric parameters
    [mesh]        dx, optional x_min/x_max (window auto-sized when absent)
    [initial]     kind = constant | step | bump | file, plus kind parameters
    [time]        t_end, optional snapshots/safety/max_dt
    [output]      directory, precision
    [diagnostics] entropy, k_levels, consistency, time_variation

Unknown sections or keys are hard errors, as are out-of-range values; the
error message names the offending "section.key". Defaults for flux families
come from the family constructors themselves, so the CLI and the library
cannot drift apart.
"""

from __future__ import annotations

import configparser
import inspect
import io
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import families
from .errors import ConfigError
from .flux_model import FluxModel
from .solver import (
    datum_bump,
    datum_constant,
    datum_from_table,
    datum_step,
)

_REQUIRED = object()


def _read_initial_table(path: str):
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"initial.path: cannot read {path!r}: {exc}") from exc
    if table.dtype.names is None or len(table.dtype.names) < 2:
        raise ConfigError(
            f"initial.path: {path!r} must be a CSV with a header row "
            "and at least two columns (x, u)"
        )
    return table


FAMILY_BUILDERS: dict[str, Callable[..., FluxModel]] = {
    "quadratic": families.quadratic,
    "two_state": families.two_state,
    "heterogeneous_quadratic": families.heterogeneous_quadratic,
    "lwr": families.lwr,
}


def _family_params(name: str) -> dict[str, Any]:
    sig = inspect.signature(FAMILY_BUILDERS[name])
    return {k: p.default for k, p in sig.parameters.items()}


INITIAL_PARAMS: dict[str, dict[str, Any]] = {
    "constant": {"value": _REQUIRED},
    "step": {"left": _REQUIRED, "right": _REQUIRED, "location": 0.0},
    "bump": {"base": _REQUIRED, "amplitude": _REQUIRED, "center": 0.0, "width": 1.0},
    "file": {"path": _REQUIRED},
}

_STRING_KEYS = {("flux", "family"), ("initial", "kind"), ("initial", "path"),
                ("output", "directory")}
_BOOL_KEYS = {("diagnostics", "entropy"), ("diagnostics", "consistency"),
              ("diagnostics", "time_variation")}
_INT_KEYS = {("output", "precision"), ("diagnostics", "k_levels")}
_LIST_KEYS = {("time", "snapshots")}

KNOWN_SECTIONS = ("flux", "mesh", "initial", "time", "output", "diagnostics")


def _section_schema(section: str, raw: dict[str, str]) -> dict[str, Any]:
    """Key -> default (or _REQUIRED) for a section, resolving dynamic keys."""
    if section == "flux":
        family = raw.get("family")
        if family is None:
            raise ConfigError("flux.family is required")
        if family not in FAMILY_BUILDERS:
            raise ConfigError(
                f"flux.family: unknown family {family!r}; "
                f"choose from {sorted(FAMILY_BUILDERS)}"
            )
        schema = {"family": _REQUIRED}
        schema.update(_family_params(family))
        return schema
    if section == "mesh":
        return {"dx": _REQUIRED, "x_min": None, "x_max": None}
    if section == "initial":
        kind = raw.get("kind")
        if kind is None:
            raise ConfigError("initial.kind is required")
        if kind not in INITIAL_PARAMS:
            raise ConfigError(
                f"initial.kind: unknown kind {kind!r}; "
                f"choose from {sorted(INITIAL_PARAMS)}"
            )
        schema = {"kind": _REQUIRED}
        schema.update(INITIAL_PARAMS[kind])
        return schema
    if section == "time":
        return {"t_end": _REQUIRED, "snapshots": (), "safety": 0.9, "max_dt": None}
    if section == "output":
        return {"directory": "out", "precision": 17}
    if section == "diagnostics":
        return {"entropy": True, "k_levels": 33, "consistency": True,
                "time_variation": True}
    raise ConfigError(f"unknown section [{section}]")


def _parse_bool(section: str, key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{section}.{key}: expected a boolean, got {text!r}")


def _parse_value(section: str, key: str, text: str) -> Any:
    text = text.strip()
    if (section, key) in _STRING_KEYS:
        return text
    if (section, key) in _BOOL_KEYS:
        return _parse_bool(section, key, text)
    if (section, key) in _INT_KEYS:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected an integer, got {text!r}") from exc
    if (section, key) in _LIST_KEYS:
        parts = [p for chunk in text.split(",") for p in chunk.split()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected numbers, got {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected a number, got {text!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with all defaults applied."""

    flux: dict[str, Any]
    mesh: Optional[dict[str, Any]]
    initial: Optional[dict[str, Any]]
    time: Optional[dict[str, Any]]
    output: dict[str, Any]
    diagnostics: dict[str, Any]
    source: str = field(default="", compare=False)

    def build_model(self) -> FluxModel:
        params = {k: v for k, v in self.flux.items() if k != "family"}
        return FAMILY_BUILDERS[self.flux["family"]](**params)

    def build_datum(self):
        if self.initial is None:
            raise ConfigError("missing [initial] section")
        kind = self.initial["kind"]
        p = self.initial
        if kind == "constant":
            return datum_constant(p["value"])
        if kind == "step":
            return datum_step(p["left"], p["right"], p["location"])
        if kind == "bump":
            return datum_bump(p["base"], p["amplitude"], p["center"], p["width"])
        table = _read_initial_table(p["path"])
        cx, cu = table.dtype.names[:2]
        return datum_from_table(np.atleast_1d(table[cx]), np.atleast_1d(table[cu]))

    def datum_support_radius(self) -> float:
        """How far from the origin the initial datum is non-constant."""
        if self.initial is None:
            return 0.0
        kind = self.initial["kind"]
        p = self.initial
        if kind == "constant":
            return 0.0
        if kind == "step":
            return abs(p["location"])
        if kind == "bump":
            return abs(p["center"]) + p["width"]
        table = _read_initial_table(p["path"])
        return float(np.max(np.abs(np.atleast_1d(table[table.dtype.names[0]]))))

    def echo(self) -> str:
        """Deterministic INI text of the resolved configuration."""
        out = io.StringIO()
        sections = [
            ("flux", self.flux),
            ("mesh", self.mesh),
            ("initial", self.initial),
            ("time", self.time),
            ("output", self.output),
            ("diagnostics", self.diagnostics),
        ]
        for name, sec in sections:
            if sec is None:
                continue
            out.write(f"[{name}]\n")
            for key, val in sec.items():
                if val is None:
                    continue
                if isinstance(val, tuple):
                    val = ", ".join(repr(v) for v in val)
                elif isinstance(val, float):
                    val = repr(val)
                out.write(f"{key} = {val}\n")
            out.write("\n")
        return out.getvalue()


def _validate_section(section: str, raw: dict[str, str]) -> dict[str, Any]:
    schema = _section_schema(section, raw)
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {section}.{key}")
    resolved: dict[str, Any] = {}
    for key, default in schema.items():
        if key in raw:
            resolved[key] = _parse_value(section, key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{section}.{key} is required")
        else:
            resolved[key] = default
    return resolved


def _check_ranges(cfg: ExperimentConfig) -> None:
    if cfg.mesh is not None:
        if not cfg.mesh["dx"] > 0:
            raise ConfigError("mesh.dx must be positive")
        given = [cfg.mesh["x_min"] is not None, cfg.mesh["x_max"] is not None]
        if any(given) and not all(given):
            raise ConfigError("mesh.x_min and mesh.x_max must be given together")
        if all(given) and not cfg.mesh["x_min"] < cfg.mesh["x_max"]:
            raise ConfigError("mesh.x_min must be below mesh.x_max")
    if cfg.time is not None:
        if cfg.time["t_end"] < 0:
            raise ConfigError("time.t_end must be nonnegative")
        if not 0 < cfg.time["safety"] <= 1:
            raise ConfigError("time.safety must lie in (0, 1]")
        if cfg.time["max_dt"] is not None and not cfg.time["max_dt"] > 0:
            raise ConfigError("time.max_dt must be positive")
        for t in cfg.time["snapshots"]:
            if not 0 <= t <= cfg.time["t_end"]:
                raise ConfigError(
                    f"time.snapshots: {t} outside [0, t_end={cfg.time['t_end']}]"
                )
    if not 2 <= cfg.output["precision"] <= 17:
        raise ConfigError("output.precision must lie in [2, 17]")
    if cfg.diagnostics["k_levels"] < 2:
        raise ConfigError("diagnostics.k_levels must be at least 2")


def make_config(
    raw_sections: dict[str, dict[str, str]], source: str = ""
) -> ExperimentConfig:
    """Validate raw string sections into an ExperimentConfig."""
    for section in raw_sections:
        if section not in KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if "flux" not in raw_sections:
        raise ConfigError("missing [flux] section")
    resolved: dict[str, Any] = {}
    for section in ("flux", "mesh", "initial", "time"):
        if section in raw_sections:
            resolved[section] = _validate_section(section, raw_sections[section])
        else:
            resolved[section] = None
    for section in ("output", "diagnostics"):
        resolved[section] = _validate_section(section, raw_sections.get(section, {}))
    cfg = ExperimentConfig(
        flux=resolved["flux"],
        mesh=resolved["mesh"],
        initial=resolved["initial"],
        time=resolved["time"],
        output=resolved["output"],
        diagnostics=resolved["diagnostics"],
        source=source,
    )
    _check_ranges(cfg)
    cfg.build_model()  # family parameter validation happens in the constructor
    return cfg


def read_raw(path: str) -> dict[str, dict[str, str]]:
    """Read an INI file into raw string sections without validating."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are hard errors."""
    return make_config(read_raw(path), source=path)
