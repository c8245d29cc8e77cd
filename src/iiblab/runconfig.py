"""Run configuration: JSON schema, file loading, and resolution.

A configuration file is a single JSON object with blocks for geometry,
initial metric family, source term, stepping control, an optional
verification suite, and output naming.  Validation is strict: unknown
keys are rejected everywhere so a typo fails loudly instead of being
ignored.  ``resolve_config`` turns the raw dictionary into constructed
objects (grid, metric field, sources, step control) plus a fully
defaulted copy of the dictionary that drivers embed verbatim in their
output headers, making every result file self-describing.

Command line overrides (seed, resolution) are applied here, before
defaulting, so the embedded copy always reflects what actually ran.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigError, GridError, SnapshotFormatError
from .flow import FORM_ANCHOR, FORM_WEIGHTED, StepControl
from .grid import TorusGrid
from .metrics import balanced_band_metric, flat_metric, fourier_scalar, random_band_metric
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

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["geometry", "initialMetric", "control"],
    "properties": {
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "activeAxes", "resolution"],
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "activeAxes": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 1,
                },
                "resolution": {"type": "integer", "minimum": 4},
            },
        },
        "initialMetric": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family"],
                    "properties": {"family": {"const": "flat"}},
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family", "fourierTerms"],
                    "properties": {
                        "family": {"const": "balanced-family"},
                        "fourierTerms": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 3,
                            },
                        },
                        "stretch": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family", "seed"],
                    "properties": {
                        "family": {"const": "random"},
                        "seed": {"type": "integer", "minimum": 0},
                        "amplitude": {
                            "type": "number",
                            "exclusiveMinimum": 0,
                            "maximum": 0.3,
                        },
                        "kmax": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
        "source": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {"kind": {"const": "none"}},
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "matrix"],
                    "properties": {
                        "kind": {"const": "psi-constant"},
                        "matrix": {
                            "type": "array",
                            "items": {"type": "array", "items": _NUMBER_PAIR},
                        },
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "path"],
                    "properties": {
                        "kind": {"const": "phi-field"},
                        "path": {"type": "string"},
                    },
                },
            ]
        },
        "control": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tEnd"],
            "properties": {
                "tEnd": {"type": "number", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "cfl": {"type": "number", "exclusiveMinimum": 0},
                "maxSteps": {"type": "integer", "minimum": 1},
                "snapshotEvery": {"type": "integer", "minimum": 1},
                "diagnosticsEvery": {"type": "integer", "minimum": 1},
            },
        },
        "formulation": {"enum": [FORM_ANCHOR, FORM_WEIGHTED]},
        "verifySuite": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["identity"],
                "properties": {
                    "identity": {"enum": list(IDENTITY_NAMES)},
                    "tolerance": {"type": "number", "minimum": 0},
                },
            },
        },
        "testFunction": {
            "type": "object",
            "additionalProperties": False,
            "required": ["epsilon", "a"],
            "properties": {
                "epsilon": {"type": "number"},
                "a": {"type": "number"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "diagnostics": {"type": "string"},
                "reports": {"type": "string"},
                "snapshotPrefix": {"type": "string"},
            },
        },
    },
}

# Built once: checking CONFIG_SCHEMA against the metaschema on every call
# cost more than validating a config (tests/test_runconfig.py checks it).
_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)

_OUTPUT_DEFAULTS = {
    "directory": ".",
    "diagnostics": "diagnostics.jsonl",
    "reports": "reports.json",
    "snapshotPrefix": "state",
}


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


def _non_finite(node, path=""):
    """Error message for the first NaN or infinity in a JSON value, else None."""
    if isinstance(node, float) and not math.isfinite(node):
        return f"config invalid at {path[1:]}: {node} is not a finite number"
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return next(filter(None, (_non_finite(v, f"{path}/{k}") for k, v in items)), None)


def validate_config(raw: dict) -> None:
    message = _non_finite(raw)
    if message is not None:
        raise ConfigError(message)
    err = best_match(_VALIDATOR.iter_errors(raw))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "top level"
        raise ConfigError(f"config invalid at {where}: {err.message}")


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
    if np.abs(mat - mat.conj().T).max() > 1e-12:
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
    if np.abs(phi - np.conj(np.swapaxes(phi, -2, -1))).max() > 1e-10:
        raise ConfigError("source field 'phi' must be Hermitian")
    return phi


def resolve_config(
    raw: dict,
    seed: int | None = None,
    resolution: int | None = None,
    base_dir: str = ".",
) -> ResolvedConfig:
    """Validate, apply overrides, fill defaults, and construct objects."""
    validate_config(raw)
    cfg = copy.deepcopy(raw)

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

    metric_block = dict(cfg["initialMetric"])
    if metric_block["family"] == "balanced-family":
        metric_block.setdefault("stretch", 1.0)
    elif metric_block["family"] == "random":
        metric_block.setdefault("amplitude", 0.05)
        metric_block.setdefault("kmax", 1)
    initial_metric = _build_metric(grid, metric_block)

    formulation = cfg.get("formulation", FORM_WEIGHTED)

    source_block = dict(cfg.get("source", {"kind": "none"}))
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

    ctl = dict(cfg["control"])
    if "dt" in ctl and "cfl" in ctl:
        raise ConfigError("control: give dt (fixed step) or cfl (adaptive), not both")
    ctl.setdefault("maxSteps", 200_000)
    ctl.setdefault("diagnosticsEvery", 10)
    if "dt" in ctl:
        control = StepControl(dt=ctl["dt"], max_steps=ctl["maxSteps"])
    else:
        ctl.setdefault("cfl", 0.2)
        control = StepControl(dt=None, cfl=ctl["cfl"], max_steps=ctl["maxSteps"])

    suite = tuple(
        (entry["identity"], entry.get("tolerance"))
        for entry in cfg.get("verifySuite", [])
    )
    if control.dt is None and any(n in EVOLUTION_REGISTRY for n, _ in suite):
        raise ConfigError(
            "evolution identities use centered time differencing over a"
            " uniform window; give control.dt (fixed step) to schedule them"
        )

    tf = None
    if "testFunction" in cfg:
        tf = (cfg["testFunction"]["epsilon"], cfg["testFunction"]["a"])

    output = dict(_OUTPUT_DEFAULTS)
    output.update(cfg.get("output", {}))

    resolved = {
        "geometry": dict(geo),
        "initialMetric": metric_block,
        "source": source_block,
        "control": ctl,
        "formulation": formulation,
        "verifySuite": [
            {"identity": name, **({} if tol is None else {"tolerance": tol})}
            for name, tol in suite
        ],
        "output": output,
    }
    if tf is not None:
        resolved["testFunction"] = {"epsilon": tf[0], "a": tf[1]}

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
        output=output,
        test_function=tf,
        resolved=resolved,
    )
