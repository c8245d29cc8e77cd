"""Config schema and resolution: strictness, defaults, overrides."""

import copy
import json
import pathlib
import re

import numpy as np
import pytest

from iiblab import CONFIG_SCHEMA, ConfigError, load_config_file, resolve_config, save_snapshot
from iiblab.grid import TorusGrid
from iiblab.metrics import balanced_band_metric, fourier_scalar
from iiblab.runconfig import _check_schema, validate_config

try:
    from hypothesis import given, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


def _base(**over):
    cfg = {
        "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": 8},
        "initialMetric": {"family": "flat"},
        "control": {"tEnd": 0.001, "dt": 1e-4},
    }
    cfg.update(over)
    return cfg


def test_minimal_config_resolves_with_defaults():
    rc = resolve_config(_base())
    assert rc.grid.resolution == 8
    assert rc.formulation == "weighted"
    assert rc.t_end == 0.001
    assert rc.control.dt == 1e-4
    assert rc.diagnostics_every == 10
    assert rc.snapshot_every is None
    assert rc.anchor_source is None and rc.weighted_source is None
    assert rc.verify_suite == ()
    assert rc.test_function is None
    # the embedded copy is self-describing: defaults are spelled out
    assert rc.resolved["control"]["maxSteps"] == 200_000
    assert rc.resolved["control"]["diagnosticsEvery"] == 10
    assert rc.resolved["output"] == {
        "directory": ".",
        "diagnostics": "diagnostics.jsonl",
        "reports": "reports.json",
        "snapshotPrefix": "state",
    }
    assert rc.resolved["source"] == {"kind": "none"}
    assert rc.resolved["formulation"] == "weighted"


def test_unknown_keys_rejected_everywhere():
    bad_top = _base()
    bad_top["extra"] = 1
    with pytest.raises(ConfigError, match="config invalid"):
        resolve_config(bad_top)

    bad_geo = _base()
    bad_geo["geometry"] = {"n": 3, "activeAxes": [0, 1], "resolution": 8, "x": 1}
    with pytest.raises(ConfigError, match="geometry"):
        resolve_config(bad_geo)

    bad_ctl = _base()
    bad_ctl["control"] = {"tEnd": 0.1, "stepSize": 1e-4}
    with pytest.raises(ConfigError, match="control"):
        resolve_config(bad_ctl)


@pytest.mark.parametrize("output, match", [
    ({"diagnostics": "out.json", "reports": "out.json"}, "output.diagnostics"),
    ({"diagnostics": "sub/../r.json", "reports": "r.json"}, "output.diagnostics"),
    ({"diagnostics": "state-00000012.snap"}, "output.diagnostics"),
    ({"reports": "state-123456789.snap"}, "output.reports"),
    ({"reports": "run/s-00000001.snap", "snapshotPrefix": "run/s"}, "output.reports"),
])
def test_colliding_output_names_are_rejected(output, match):
    with pytest.raises(ConfigError, match=match + ".* names another output file"):
        resolve_config(_base(output=output))


@pytest.mark.parametrize("output", [
    {"diagnostics": "state-0000001.snap"},  # seven digits: no snapshot has it
    {"reports": "state-00000001.snap", "snapshotPrefix": "s"},
    {"diagnostics": "a.json", "reports": "b.json"},
])
def test_distinct_output_names_are_accepted(output):
    assert resolve_config(_base(output=output)).output == {
        "directory": ".", "diagnostics": "diagnostics.jsonl", "reports": "reports.json",
        "snapshotPrefix": "state", **output}


def test_missing_required_block_names_the_path():
    cfg = _base()
    del cfg["control"]
    with pytest.raises(ConfigError, match="top level"):
        resolve_config(cfg)
    cfg = _base()
    cfg["control"] = {"dt": 1e-4}
    with pytest.raises(ConfigError, match="control"):
        resolve_config(cfg)


def test_balanced_family_matches_direct_construction():
    terms = [[1, 1, 0.0, -0.05], [1, -1, 0.0, -0.05]]
    rc = resolve_config(_base(initialMetric={
        "family": "balanced-family", "fourierTerms": terms, "stretch": 1.5,
    }))
    f = fourier_scalar(rc.grid, terms)
    assert np.array_equal(rc.initial_metric, balanced_band_metric(rc.grid, f, 1.5))
    assert rc.resolved["initialMetric"]["stretch"] == 1.5

    rc2 = resolve_config(_base(initialMetric={
        "family": "balanced-family", "fourierTerms": terms,
    }))
    assert rc2.resolved["initialMetric"]["stretch"] == 1.0


def test_balanced_family_rejects_profiles_off_axes_zero_and_one():
    geometry = {"n": 3, "activeAxes": [0, 2], "resolution": 8}
    off = _base(geometry=geometry, initialMetric={
        "family": "balanced-family", "fourierTerms": [[1, 1, 0.0, -0.15]],
    })
    with pytest.raises(ConfigError, match="real axis 2"):
        resolve_config(off)
    # a zero wave number on axis 2 keeps the profile on the balanced locus
    on = _base(geometry=geometry, initialMetric={
        "family": "balanced-family", "fourierTerms": [[1, 0, 0.0, -0.15]],
    })
    assert resolve_config(on).grid.active_axes == (0, 2)


def test_config_schema_is_valid_json_schema():
    # the schema stays standard JSON Schema, so jsonschema can be its oracle
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def _corpus():
    """The README example config and the configs these tests build."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    example = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    mat = [[[0.0, 0.0]] * 3 for _ in range(3)]
    return [
        json.loads(example.group(1)),
        _base(),
        _base(initialMetric={"family": "balanced-family",
                             "fourierTerms": [[1, 1, 0.0, -0.05]], "stretch": 1.5}),
        _base(initialMetric={"family": "random", "seed": 4, "amplitude": 0.1, "kmax": 2}),
        _base(source={"kind": "psi-constant", "matrix": mat}),
        _base(source={"kind": "phi-field", "path": "phi.snap"}, formulation="anchor"),
        _base(control={"tEnd": 0.1, "cfl": 0.2, "maxSteps": 5, "snapshotEvery": 2,
                       "diagnosticsEvery": 1}),
        _base(verifySuite=[{"identity": "bianchi", "tolerance": 1e-6},
                           {"identity": "commutator"}]),
        _base(testFunction={"epsilon": 0.02, "a": 1.5}),
        _base(output={"directory": "o", "diagnostics": "d.jsonl", "reports": "r.json",
                      "snapshotPrefix": "s"}),
    ]


def _nodes(node, path=()):
    """Every (path, value) inside a JSON value, the value itself first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _edit(cfg, path, change):
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return out


def _mutants(cfg):
    """Each key dropped, each value retyped, one unknown key added per object."""
    for path, node in _nodes(cfg):
        if isinstance(node, dict):
            yield _edit(cfg, path + ("zzUnknown",), lambda p, k: p.__setitem__(k, 1))
        if not path:
            continue
        if isinstance(path[-1], str):
            yield _edit(cfg, path, lambda p, k: p.pop(k))
        for value in ("x", 2.5, 7, -1, True, None, [], {}):
            yield _edit(cfg, path, lambda p, k, v=value: p.__setitem__(k, v))


def _walk_accepts(cfg) -> bool:
    try:
        validate_config(cfg)
    except ConfigError:
        return False
    return True


def test_walk_agrees_with_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    oracle = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    checked, disagree = 0, []
    for cfg in _corpus():
        assert _walk_accepts(cfg) and oracle.is_valid(cfg)
        for mutant in _mutants(cfg):
            checked += 1
            if _walk_accepts(mutant) != oracle.is_valid(mutant):
                disagree.append(mutant)
    assert checked > 1000
    assert not disagree, disagree[:3]


@pytest.mark.parametrize("path, value", [
    (("geometry", "resolution"), 8.0),
    (("geometry", "activeAxes", 1), 1.0),
    (("control", "maxSteps"), 5.0),
    (("control", "tEnd"), float("nan")),
    (("control", "dt"), float("inf")),
    (("testFunction", "a"), float("-inf")),
])
def test_walk_rejects_integral_floats_and_non_finite_numbers_jsonschema_accepts(path, value):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = _edit(_base(testFunction={"epsilon": 0.02, "a": 1.5}), path,
                lambda p, k: p.__setitem__(k, value))
    assert jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(cfg)
    with pytest.raises(ConfigError, match=f"config invalid at {'/'.join(map(str, path))}: "):
        validate_config(cfg)


def test_validate_config_returns_a_defaulted_copy():
    cfg = _base(initialMetric={"family": "balanced-family", "fourierTerms": [[1, 1, 0.0, -0.05]]})
    out = validate_config(cfg)
    assert out is not cfg and out["geometry"] is not cfg["geometry"]
    assert out["initialMetric"]["stretch"] == 1.0
    assert out["control"] == {"tEnd": 0.001, "dt": 1e-4, "maxSteps": 200_000,
                              "diagnosticsEvery": 10}
    assert out["verifySuite"] == [] and "testFunction" not in out


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "additionalProperties": False,
     "properties": {"name": {"type": "string", "format": "uri"}}},
    {"type": "array", "items": {"type": "integer", "multipleOf": 2}},
    {"type": "object", "properties": {}},  # an object must reject unknown keys
    {"type": "boolean"},
    {"oneOf": [{"type": "object", "additionalProperties": False,
                "properties": {"kind": {"type": "string"}}, "required": ["kind"]}]},
])
def test_unsupported_schema_keyword_raises(schema):
    with pytest.raises(ValueError):
        _check_schema(schema)


def test_random_family_defaults_and_seed_override():
    rc = resolve_config(_base(initialMetric={"family": "random", "seed": 4}))
    assert rc.resolved["initialMetric"]["amplitude"] == 0.05
    assert rc.resolved["initialMetric"]["kmax"] == 1

    rc9 = resolve_config(_base(initialMetric={"family": "random", "seed": 4}), seed=9)
    assert rc9.resolved["initialMetric"]["seed"] == 9
    assert not np.array_equal(rc9.initial_metric, rc.initial_metric)


def test_seed_override_requires_random_family():
    with pytest.raises(ConfigError, match="--seed"):
        resolve_config(_base(), seed=3)


def test_resolution_override_is_visible_everywhere():
    rc = resolve_config(_base(), resolution=16)
    assert rc.grid.resolution == 16
    assert rc.resolved["geometry"]["resolution"] == 16


def test_degenerate_dimension_is_refused():
    cfg = _base()
    cfg["geometry"]["n"] = 2
    with pytest.raises(ConfigError, match="n = 2 is degenerate"):
        resolve_config(cfg)


def test_psi_constant_source_parsed_and_checked():
    mat = [[[0.0, 0.0]] * 3 for _ in range(3)]
    mat[1][1] = [0.25, 0.0]
    rc = resolve_config(_base(source={"kind": "psi-constant", "matrix": mat}))
    assert rc.anchor_source is not None
    assert rc.anchor_source[1, 1] == 0.25
    assert rc.weighted_source is None

    herm_broken = [row[:] for row in mat]
    herm_broken[0][1] = [0.0, 0.5]  # i in one corner only
    with pytest.raises(ConfigError, match="Hermitian"):
        resolve_config(_base(source={"kind": "psi-constant", "matrix": herm_broken}))

    with pytest.raises(ConfigError, match="3 x 3"):
        resolve_config(_base(source={"kind": "psi-constant",
                                     "matrix": [[[0.0, 0.0]] * 2] * 2}))


def test_phi_field_source_round_trip(tmp_path):
    grid = TorusGrid(3, (0, 1), 8)
    phi = np.zeros(grid.shape + (3, 3), dtype=complex)
    phi[..., 0, 0] = -0.125
    save_snapshot(tmp_path / "phi.snap", grid, 0.0, {"phi": phi})

    rc = resolve_config(
        _base(source={"kind": "phi-field", "path": "phi.snap"}),
        base_dir=str(tmp_path),
    )
    assert np.array_equal(rc.weighted_source, phi)

    # geometry mismatch: config at resolution 16, field saved at 8
    with pytest.raises(ConfigError, match="geometry"):
        resolve_config(
            _base(source={"kind": "phi-field", "path": "phi.snap"}),
            resolution=16,
            base_dir=str(tmp_path),
        )

    # geometry mismatch at equal resolution and array shape: other active axes
    save_snapshot(tmp_path / "phi02.snap", TorusGrid(3, (0, 2), 8), 0.0, {"phi": phi})
    with pytest.raises(ConfigError, match=r"geometry 3/\(0, 2\)/8 does not match"):
        resolve_config(
            _base(source={"kind": "phi-field", "path": "phi02.snap"}),
            base_dir=str(tmp_path),
        )

    # the anchor formulation has no slot for a direct matrix field
    with pytest.raises(ConfigError, match="anchor"):
        resolve_config(
            _base(source={"kind": "phi-field", "path": "phi.snap"},
                  formulation="anchor"),
            base_dir=str(tmp_path),
        )

    # stationarity checks the anchor equation, where a phi field has no form
    with pytest.raises(ConfigError, match="stationarity.*phi-field"):
        resolve_config(
            _base(source={"kind": "phi-field", "path": "phi.snap"},
                  verifySuite=[{"identity": "tau"}, {"identity": "stationarity"}]),
            base_dir=str(tmp_path),
        )


def test_phi_field_requires_named_hermitian_array(tmp_path):
    grid = TorusGrid(3, (0, 1), 8)
    field = np.zeros(grid.shape + (3, 3), dtype=complex)
    field[..., 0, 1] = 1j
    save_snapshot(tmp_path / "skew.snap", grid, 0.0, {"phi": field})
    with pytest.raises(ConfigError, match="Hermitian"):
        resolve_config(_base(source={"kind": "phi-field", "path": "skew.snap"}),
                       base_dir=str(tmp_path))

    save_snapshot(tmp_path / "misnamed.snap", grid, 0.0, {"metric": np.zeros_like(field)})
    with pytest.raises(ConfigError, match="phi"):
        resolve_config(_base(source={"kind": "phi-field", "path": "misnamed.snap"}),
                       base_dir=str(tmp_path))


def test_dt_and_cfl_are_mutually_exclusive():
    cfg = _base()
    cfg["control"] = {"tEnd": 0.1, "dt": 1e-4, "cfl": 0.2}
    with pytest.raises(ConfigError, match="not both"):
        resolve_config(cfg)


def test_adaptive_control_defaults_cfl():
    cfg = _base()
    cfg["control"] = {"tEnd": 0.1}
    rc = resolve_config(cfg)
    assert rc.control.dt is None
    assert rc.control.cfl == 0.2
    assert rc.resolved["control"]["cfl"] == 0.2


def test_evolution_identities_need_fixed_step():
    cfg = _base(verifySuite=[{"identity": "trh"}])
    cfg["control"] = {"tEnd": 0.1}
    with pytest.raises(ConfigError, match="control.dt"):
        resolve_config(cfg)
    # spatial identities are fine under adaptive stepping
    ok = _base(verifySuite=[{"identity": "tau"}])
    ok["control"] = {"tEnd": 0.1}
    rc = resolve_config(ok)
    assert rc.verify_suite == (("tau", None),)


def test_verify_suite_tolerances_carried():
    rc = resolve_config(_base(verifySuite=[
        {"identity": "bianchi", "tolerance": 1e-6},
        {"identity": "commutator"},
    ]))
    assert rc.verify_suite == (("bianchi", 1e-6), ("commutator", None))
    assert rc.resolved["verifySuite"] == [
        {"identity": "bianchi", "tolerance": 1e-6},
        {"identity": "commutator"},
    ]


def test_unknown_identity_rejected():
    with pytest.raises(ConfigError, match="verifySuite"):
        resolve_config(_base(verifySuite=[{"identity": "parallel-transport"}]))


def test_test_function_block():
    rc = resolve_config(_base(testFunction={"epsilon": 0.02, "a": 1.5}))
    assert rc.test_function == (0.02, 1.5)
    assert rc.resolved["testFunction"] == {"epsilon": 0.02, "a": 1.5}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(arr)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base()))
    assert load_config_file(good)["geometry"]["n"] == 3


def test_original_dict_never_mutated():
    cfg = _base(initialMetric={"family": "random", "seed": 4})
    before = json.dumps(cfg, sort_keys=True)
    resolve_config(cfg, seed=11, resolution=16)
    assert json.dumps(cfg, sort_keys=True) == before


if HAS_HYPOTHESIS:

    @given(st.integers(min_value=2, max_value=8))
    def test_resolution_must_be_power_of_two(k):
        res = 2 ** k
        rc = resolve_config(_base(), resolution=res)
        assert rc.grid.resolution == res

    @given(st.integers(min_value=5, max_value=1000).filter(
        lambda r: r & (r - 1) != 0))
    def test_non_power_of_two_resolution_rejected(res):
        with pytest.raises(ConfigError):
            resolve_config(_base(), resolution=res)
