"""Run configuration: JSON schema, file loading, and resolution.

A configuration file is a single JSON object with blocks for geometry,
initial metric family, source term, stepping control, an optional
verification suite, and output naming.  Validation is strict: unknown
keys are rejected everywhere so a typo fails loudly instead of being
ignored, and so are non-finite numbers and floats in integer fields.  One
walk of ``CONFIG_SCHEMA`` checks a config and fills in the defaults the
schema annotates; at import the schema is checked to use only keywords
the walk reads.  ``resolve_config`` turns the raw dictionary into constructed
objects (grid, metric field, sources, step control) plus a fully
defaulted copy of the dictionary that drivers embed verbatim in their
output headers, making every result file self-describing.

Command line overrides (seed, resolution) are applied to the defaulted
copy, so the embedded copy always reflects what actually ran.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridError, SnapshotFormatError
from .flow import FORM_ANCHOR, FORM_WEIGHTED, StepControl
from .grid import TorusGrid
from .metrics import (
    balanced_band_metric, flat_metric, fourier_scalar, hermiticity_defect, random_band_metric,
)
from .snapshot import load_snapshot
from .verify import EVOLUTION_REGISTRY, SPATIAL_REGISTRY

__all__ = [
    "CONFIG_SCHEMA",
    "IDENTITY_NAMES",
    "ResolvedConfig",
    "load_config_file",
    "resolve_config",
    "validate_config",
]

IDENTITY_NAMES = tuple(sorted(SPATIAL_REGISTRY) + sorted(EVOLUTION_REGISTRY))

_NUMBER_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}


def _strict(required: list, properties: dict, **keywords) -> dict:
    """Object schema that rejects every key it does not list."""
    return {"type": "object", "additionalProperties": False, "required": required,
            "properties": properties, **keywords}


CONFIG_SCHEMA = _strict(["geometry", "initialMetric", "control"], {
    "geometry": _strict(["n", "activeAxes", "resolution"], {
        "n": {"type": "integer", "minimum": 2},
        "activeAxes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "resolution": {"type": "integer", "minimum": 4},
    }),
    "initialMetric": {"oneOf": [
        _strict(["family"], {"family": {"const": "flat"}}),
        _strict(["family", "fourierTerms"], {
            "family": {"const": "balanced-family"},
            "fourierTerms": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "array", "items": {"type": "number"}, "minItems": 3},
            },
            "stretch": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        }),
        _strict(["family", "seed"], {
            "family": {"const": "random"},
            "seed": {"type": "integer", "minimum": 0},
            "amplitude": {
                "type": "number",
                "exclusiveMinimum": 0,
                "maximum": 0.3,
                "default": 0.05,
            },
            "kmax": {"type": "integer", "minimum": 1, "default": 1},
        }),
    ]},
    "source": {"default": {"kind": "none"}, "oneOf": [
        _strict(["kind"], {"kind": {"const": "none"}}),
        _strict(["kind", "matrix"], {
            "kind": {"const": "psi-constant"},
            "matrix": {"type": "array", "items": {"type": "array", "items": _NUMBER_PAIR}},
        }),
        _strict(["kind", "path"], {
            "kind": {"const": "phi-field"},
            "path": {"type": "string"},
        }),
    ]},
    "control": _strict(["tEnd"], {
        "tEnd": {"type": "number", "minimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "cfl": {"type": "number", "exclusiveMinimum": 0},
        "maxSteps": {"type": "integer", "minimum": 1, "default": StepControl.max_steps},
        "snapshotEvery": {"type": "integer", "minimum": 1},
        "diagnosticsEvery": {"type": "integer", "minimum": 1, "default": 10},
    }),
    "formulation": {"enum": [FORM_ANCHOR, FORM_WEIGHTED], "default": FORM_WEIGHTED},
    "verifySuite": {"type": "array", "default": [], "items": _strict(["identity"], {
        "identity": {"enum": list(IDENTITY_NAMES)},
        "tolerance": {"type": "number", "minimum": 0},
    })},
    "output": _strict([], {
        "directory": {"type": "string", "default": "."},
        "diagnostics": {"type": "string", "default": "diagnostics.jsonl"},
        "reports": {"type": "string", "default": "reports.json"},
        "snapshotPrefix": {"type": "string", "default": "state"},
    }, default={}),
    "testFunction": _strict(["epsilon", "a"], {
        "epsilon": {"type": "number"},
        "a": {"type": "number"},
    }),
})

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # a JSON integer: neither a bool nor an integer-valued float such as 8.0
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_LIMITS = {  # keyword: (test that the value or item count breaks the bound, message)
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "minItems": (operator.lt, "has fewer items than"),
    "maxItems": (operator.gt, "has more items than"),
}
_KEYWORDS = {"type", "properties", "additionalProperties", "required", "const", "enum",
             "items", "oneOf", "default", *_LIMITS}


def _check_schema(schema: dict) -> None:
    """Raise ValueError where ``schema`` says anything :func:`_walk` does not read."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"config schema keywords {sorted(unknown)} are not interpreted")
    strict = schema.get("additionalProperties") is False
    if schema.get("type", "object") not in _TYPES or strict != (schema.get("type") == "object"):
        raise ValueError(f"config schema {schema}: unknown type, or a lax object")
    for branch in schema.get("oneOf", ()):
        key = (branch.get("required") or [None])[0]
        if "const" not in branch.get("properties", {}).get(key, {}):
            raise ValueError(f"oneOf branch {branch} has no const as first required key")
    items = [schema["items"]] if "items" in schema else []
    for sub in (*schema.get("properties", {}).values(), *schema.get("oneOf", ()), *items):
        _check_schema(sub)


def _walk(node, schema: dict, path: tuple):
    """Checked copy of the JSON value ``node`` with the schema's defaults filled in."""

    def fault(message: str):
        where = "/".join(map(str, path)) or "top level"
        raise ConfigError(f"config invalid at {where}: {message}")

    if isinstance(node, float) and not math.isfinite(node):
        fault(f"{node} is not a finite number")
    if "oneOf" in schema:  # the branch whose const discriminator node carries
        schema = next((b for b in schema["oneOf"] if isinstance(node, dict) and node.get(
            b["required"][0]) == b["properties"][b["required"][0]]["const"]), None)
        if schema is None:
            fault(f"{node!r} is not valid under any of the given schemas")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](node):
        fault(f"{node!r} is not of type {kind!r}")
    if "const" in schema and node != schema["const"]:
        fault(f"{schema['const']!r} was expected")
    if "enum" in schema and node not in schema["enum"]:
        fault(f"{node!r} is not one of {schema['enum']!r}")
    size = len(node) if isinstance(node, list) else node
    for key, (breaks, text) in _LIMITS.items():
        if key in schema and breaks(size, schema[key]):
            fault(f"{node!r} {text} {schema[key]!r}")
    if isinstance(node, list):
        return [_walk(v, schema.get("items", {}), path + (i,)) for i, v in enumerate(node)]
    if not isinstance(node, dict):
        return node
    props = schema.get("properties", {})
    for key in schema.get("required", ()):
        if key not in node:
            fault(f"{key!r} is a required property")
    for key in node:
        if key not in props:
            fault(f"Additional properties are not allowed ({key!r} was unexpected)")
    return {key: _walk(node[key] if key in node else sub["default"], sub, path + (key,))
            for key, sub in props.items() if key in node or "default" in sub}


_check_schema(CONFIG_SCHEMA)


@dataclass(frozen=True)
class ResolvedConfig:
    grid: TorusGrid
    initial_metric: np.ndarray
    formulation: str
    t_end: float
    control: StepControl
    diagnostics_every: int
    snapshot_every: int | None
    anchor_source: np.ndarray | None
    weighted_source: np.ndarray | None
    verify_suite: tuple[tuple[str, float | None], ...]
    output: dict
    test_function: tuple[float, float] | None
    resolved: dict


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def validate_config(raw: dict) -> dict:
    """Copy of ``raw`` with defaults filled in; ConfigError at its first fault."""
    return _walk(raw, CONFIG_SCHEMA, ())


def _build_metric(grid: TorusGrid, block: dict) -> np.ndarray:
    family = block["family"]
    if family == "flat":
        return flat_metric(grid)
    if family == "balanced-family":
        try:
            f = fourier_scalar(grid, block["fourierTerms"])
        except GridError as err:
            raise ConfigError(f"initialMetric.fourierTerms: {err}")
        for term in block["fourierTerms"]:
            off = [axis for k, axis in zip(term, grid.active_axes) if k and axis > 1]
            if off:
                raise ConfigError(
                    f"initialMetric.fourierTerms: term {term} varies along real"
                    f" axis {off[0]}; the balanced family is conformally balanced"
                    " only for profiles of real axes 0 and 1"
                )
        return balanced_band_metric(grid, f, block["stretch"])
    try:
        return random_band_metric(
            grid, block["seed"], block["amplitude"], block["kmax"]
        )
    except Exception as err:
        raise ConfigError(f"initialMetric (random): {err}")


def _parse_matrix(entries, n: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (n, n, 2):
        raise ConfigError(
            f"source.matrix must be {n} x {n} pairs [re, im], got shape"
            f" {arr.shape}"
        )
    mat = arr[..., 0] + 1j * arr[..., 1]
    if hermiticity_defect(mat) > 1e-12:
        raise ConfigError("source.matrix must be Hermitian")
    return mat


def _load_phi(path, grid: TorusGrid) -> np.ndarray:
    try:
        field_grid, _, arrays, _ = load_snapshot(path)
    except (OSError, SnapshotFormatError) as err:
        raise ConfigError(f"source.path {path}: {err}")
    if (field_grid.n, field_grid.active_axes, field_grid.resolution) != (
        grid.n,
        grid.active_axes,
        grid.resolution,
    ):
        raise ConfigError(
            f"source field geometry {field_grid.n}/{field_grid.active_axes}/"
            f"{field_grid.resolution} does not match the run geometry"
        )
    if "phi" not in arrays:
        raise ConfigError(
            f"source.path {path} has no array named 'phi'"
            f" (found {sorted(arrays)})"
        )
    phi = arrays["phi"]
    if not np.isfinite(phi).all():
        raise ConfigError(f"source field 'phi' in {path} has non-finite entries")
    if hermiticity_defect(phi) > 1e-10:
        raise ConfigError("source field 'phi' must be Hermitian")
    return phi


def resolve_config(
    raw: dict,
    seed: int | None = None,
    resolution: int | None = None,
    base_dir: str = ".",
) -> ResolvedConfig:
    """Validate and default, apply overrides, and construct objects."""
    cfg = validate_config(raw)

    if resolution is not None:
        cfg["geometry"]["resolution"] = int(resolution)
    if seed is not None:
        if cfg["initialMetric"].get("family") != "random":
            raise ConfigError(
                "--seed only applies to the random initial metric family,"
                f" config uses {cfg['initialMetric'].get('family')!r}"
            )
        cfg["initialMetric"]["seed"] = int(seed)

    geo = cfg["geometry"]
    if geo["n"] < 3:
        raise ConfigError(
            f"n = {geo['n']} is degenerate: the determinant of the weighted"
            " metric no longer determines the conformal factor (the exponent"
            " n - 2 vanishes); this laboratory needs n >= 3"
        )
    try:
        grid = TorusGrid(geo["n"], tuple(geo["activeAxes"]), geo["resolution"])
    except GridError as err:
        raise ConfigError(f"geometry: {err}")

    initial_metric = _build_metric(grid, cfg["initialMetric"])

    formulation = cfg["formulation"]
    source_block = cfg["source"]
    anchor_source = None
    weighted_source = None
    if source_block["kind"] == "psi-constant":
        anchor_source = _parse_matrix(source_block["matrix"], grid.n)
    elif source_block["kind"] == "phi-field":
        if formulation == FORM_ANCHOR:
            raise ConfigError(
                "the anchor formulation takes only a sigma-basis source"
                " (psi-constant), not a direct matrix field"
            )
        phi_path = source_block["path"]
        if not os.path.isabs(phi_path):
            phi_path = os.path.join(base_dir, phi_path)
        weighted_source = _load_phi(phi_path, grid)

    ctl = cfg["control"]
    if "dt" in ctl and "cfl" in ctl:
        raise ConfigError("control: give dt (fixed step) or cfl (adaptive), not both")
    if "dt" in ctl:
        control = StepControl(dt=ctl["dt"], max_steps=ctl["maxSteps"])
    else:
        ctl.setdefault("cfl", StepControl.cfl)  # the one default that depends on another key
        control = StepControl(dt=None, cfl=ctl["cfl"], max_steps=ctl["maxSteps"])

    suite = tuple((entry["identity"], entry.get("tolerance")) for entry in cfg["verifySuite"])
    if control.dt is None and any(n in EVOLUTION_REGISTRY for n, _ in suite):
        raise ConfigError(
            "evolution identities use centered time differencing over a"
            " uniform window; give control.dt (fixed step) to schedule them"
        )
    if weighted_source is not None and any(n == "stationarity" for n, _ in suite):
        raise ConfigError(
            "the stationarity identity checks the anchor equation, which takes"
            " only a psi-constant source; a phi-field source has no static"
            " anchor form"
        )

    tf = None
    if "testFunction" in cfg:
        tf = (cfg["testFunction"]["epsilon"], cfg["testFunction"]["a"])

    return ResolvedConfig(
        grid=grid,
        initial_metric=initial_metric,
        formulation=formulation,
        t_end=float(ctl["tEnd"]),
        control=control,
        diagnostics_every=int(ctl["diagnosticsEvery"]),
        snapshot_every=ctl.get("snapshotEvery"),
        anchor_source=anchor_source,
        weighted_source=weighted_source,
        verify_suite=suite,
        output=cfg["output"],
        test_function=tf,
        resolved=cfg,
    )
