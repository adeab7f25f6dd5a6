"""Declarative experiment configuration: INI parsing, validation, echo.

One config file describes one experiment. SECTIONS states every section,
key and default; parsing, the echo and every command-line flag read it:

    [flux]        family = quadratic | two_state | heterogeneous_quadratic | lwr
                  plus that family's numeric parameters
    [mesh]        dx, optional x_min/x_max (window auto-sized when absent)
    [initial]     kind = constant | step | bump | file, plus kind parameters
    [time]        t_end, optional snapshots/safety/max_dt
    [output]      directory, precision
    [diagnostics] entropy, k_levels, consistency, time_variation

[flux] and [initial] are selector sections: family and kind name a builder,
whose signature gives the other keys and their defaults, so the CLI and the
library cannot drift apart. A value parses as the type of its default: bool,
int, tuple of floats, text, and a finite float otherwise. The text keys
without a default are the selectors and initial.path. Unknown sections or
keys are hard errors, as are out-of-range values; the error message names
the offending "section.key". A built datum carries its own support and map
(see solver), so nothing here knows a datum kind's parameters.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import families
from .errors import ConfigError
from .flux_model import FluxModel
from .solver import datum_bump, datum_constant, datum_from_table, datum_step

_REQUIRED = object()  # a key without a default, parsed as a number
_REQUIRED_TEXT = object()  # a key without a default, kept as text


def _datum_file(path: str):
    """The datum interpolating the first two columns (x, u) of a CSV file."""
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"initial.path: cannot read {path!r}: {exc}") from exc
    if table.dtype.names is None or len(table.dtype.names) < 2:
        raise ConfigError(
            f"initial.path: {path!r} must be a CSV with a header row "
            "and at least two columns (x, u)"
        )
    cx, cu = table.dtype.names[:2]
    try:
        return datum_from_table(np.atleast_1d(table[cx]), np.atleast_1d(table[cu]))
    except ConfigError as exc:
        raise ConfigError(f"initial.path: {path!r}: {exc}") from exc


FAMILY_BUILDERS: dict[str, Callable[..., FluxModel]] = {
    "quadratic": families.quadratic, "two_state": families.two_state,
    "heterogeneous_quadratic": families.heterogeneous_quadratic, "lwr": families.lwr}

DATUM_BUILDERS: dict[str, Callable] = {
    "constant": datum_constant, "step": datum_step, "bump": datum_bump, "file": _datum_file}


@functools.cache
def _builder_keys(builder: Callable) -> dict[str, Any]:
    """Key -> default of a builder's parameters; one without a default is
    required, as text when annotated str."""
    return {
        k: p.default if p.default is not p.empty
        else _REQUIRED_TEXT if p.annotation in (str, "str") else _REQUIRED
        for k, p in inspect.signature(builder).parameters.items()
    }


class _Selector(NamedTuple):
    """A section whose `key` names one of `builders`; the builder's parameters
    are the section's other keys."""

    key: str
    builders: dict[str, Callable]

    def schema(self, choice: str) -> dict[str, Any]:
        # unwrapped, a functools.wraps wrapper (the benchmark tracer's) shares the table
        return {self.key: _REQUIRED_TEXT, **_builder_keys(inspect.unwrap(self.builders[choice]))}

    def build(self, resolved: dict[str, Any]):
        params = {k: v for k, v in resolved.items() if k != self.key}
        return self.builders[resolved[self.key]](**params)


SECTIONS: dict[str, Any] = {
    "flux": _Selector("family", FAMILY_BUILDERS),
    "mesh": {"dx": _REQUIRED, "x_min": None, "x_max": None},
    "initial": _Selector("kind", DATUM_BUILDERS),
    "time": {"t_end": _REQUIRED, "snapshots": (), "safety": 0.9, "max_dt": None},
    "output": {"directory": "out", "precision": 17},
    "diagnostics": {"entropy": True, "k_levels": 33, "consistency": True,
                    "time_variation": True},
}


def config_keys() -> list[tuple[str, str]]:
    """(section, key) for every key of SECTIONS, in a stable order: a selector
    section lists its selector, then the keys of its builders in turn."""
    keys: dict[tuple[str, str], None] = {}
    for section, spec in SECTIONS.items():
        schemas = [spec] if isinstance(spec, dict) else map(spec.schema, spec.builders)
        for schema in schemas:
            keys.update(dict.fromkeys((section, key) for key in schema))
    return list(keys)


def _section_schema(section: str, raw: dict[str, str]) -> dict[str, Any]:
    """Key -> default (or a required marker) for a section, resolving its selector."""
    spec = SECTIONS[section]
    if isinstance(spec, dict):
        return spec
    choice = raw.get(spec.key)
    if choice is None:
        raise ConfigError(f"{section}.{spec.key} is required")
    if choice not in spec.builders:
        raise ConfigError(
            f"{section}.{spec.key}: unknown {spec.key} {choice!r}; "
            f"choose from {sorted(spec.builders)}"
        )
    return spec.schema(choice)


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _parse_value(section: str, key: str, text: str, default: Any) -> Any:
    """text parsed as the type of the key's default."""
    text = text.strip()
    kind = str if default is _REQUIRED_TEXT else type(default)
    if kind is str:
        return text
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ConfigError(f"{section}.{key}: expected a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    if kind is int:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected an integer, got {text!r}") from exc
    parts = [p for chunk in text.split(",") for p in chunk.split()] if kind is tuple else [text]
    try:
        numbers = tuple(float(p) for p in parts)
    except ValueError as exc:
        expected = "numbers" if kind is tuple else "a number"
        raise ConfigError(f"{section}.{key}: expected {expected}, got {text!r}") from exc
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {text!r}")
    return numbers if kind is tuple else numbers[0]


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
        return SECTIONS["flux"].build(self.flux)

    def build_datum(self):
        """The initial datum, in physical units."""
        if self.initial is None:
            raise ConfigError("missing [initial] section")
        return SECTIONS["initial"].build(self.initial)

    def echo(self) -> str:
        """Deterministic INI text of the resolved configuration."""
        out = io.StringIO()
        for name in SECTIONS:
            sec = getattr(self, name)
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
            resolved[key] = _parse_value(section, key, raw[key], default)
        elif default is _REQUIRED or default is _REQUIRED_TEXT:
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
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    if "flux" not in raw_sections:
        raise ConfigError("missing [flux] section")
    # An absent section resolves to None when it has a required key, as every
    # selector section does, and to its defaults otherwise.
    resolved = {}
    for section, spec in SECTIONS.items():
        if section in raw_sections or isinstance(spec, dict) and _REQUIRED not in spec.values():
            resolved[section] = _validate_section(section, raw_sections.get(section, {}))
        else:
            resolved[section] = None
    cfg = ExperimentConfig(**resolved, source=source)
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
