"""The CLI contract over configs drawn from CONFIG_SCHEMA.

``iiblab run`` on any config the schema describes either exits 1 with one
JSON error on stderr (always when two output files would share a name), or
writes a header, records with strictly increasing
finite times and a status record whose status decides the exit code as the
README says, keeps at least one snapshot, and on a singularity stop keeps a
last state above the positivity floor.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from iiblab import CONFIG_SCHEMA, load_snapshot
from iiblab.cli import main
from iiblab.flow import POSITIVITY_FLOOR

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# status -> exit code, as the README and the cli docstring state them
EXIT_OF_STATUS = {"completed": 0, "singularity-stop": 2, "blowup": 3}

_SMALL = st.floats(min_value=-1.0, max_value=1.0)

# Leaves whose schema range would make runs long or touch files outside the
# run's directory; the schema still decides the structure and every enum.
OVERRIDES = {
    ("geometry", "n"): st.integers(3, 4),
    ("geometry", "activeAxes"): st.lists(st.integers(0, 7), min_size=1, max_size=3),
    ("geometry", "resolution"): st.sampled_from([4, 6, 8]),
    ("initialMetric", "fourierTerms"): st.sampled_from([
        [[1, 1, 0.0, -0.05], [1, -1, 0.0, -0.05]], [[1, 0, 0.1, 0.0]], [[1, 2, 0.1]],
    ]),
    ("initialMetric", "stretch"): st.floats(min_value=0.5, max_value=2.0),
    ("initialMetric", "seed"): st.integers(0, 3),
    ("initialMetric", "kmax"): st.integers(1, 2),
    ("source", "matrix"): st.lists(
        st.lists(st.tuples(_SMALL, _SMALL).map(list), min_size=3, max_size=3),
        min_size=3, max_size=3),
    ("source", "path"): st.just("missing.snap"),
    ("control", "tEnd"): st.floats(min_value=0.0, max_value=0.05),
    ("control", "dt"): st.floats(min_value=2e-3, max_value=1e-2),
    ("control", "cfl"): st.floats(min_value=0.2, max_value=4.0),
    ("control", "maxSteps"): st.integers(1, 6),
    ("control", "snapshotEvery"): st.integers(1, 3),
    ("control", "diagnosticsEvery"): st.integers(1, 3),
    ("verifySuite",): st.lists(st.fixed_dictionaries(
        {"identity": st.sampled_from(["tau", "stationarity", "connection-difference"])},
        optional={"tolerance": st.sampled_from([0.0, 1e-6, 1.0])}), max_size=1),
    ("output", "directory"): st.just("unused"),  # --out takes its place
    ("output", "diagnostics"): st.sampled_from(["diagnostics.jsonl", "d.jsonl"]),
    ("output", "reports"): st.sampled_from(["reports.json", "r.json"]),
    ("output", "snapshotPrefix"): st.sampled_from(["state", "s"]),
    ("testFunction", "epsilon"): _SMALL,
    ("testFunction", "a"): _SMALL,
}


def _from_schema(schema: dict, path: tuple = ()):
    """A strategy for the JSON values ``schema`` accepts, with ``OVERRIDES``
    in place of the leaves at their paths."""
    if path in OVERRIDES:
        return OVERRIDES[path]
    if "oneOf" in schema:
        return st.one_of([_from_schema(branch, path) for branch in schema["oneOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = schema["properties"]
        required = {k: _from_schema(props[k], path + (k,)) for k in schema["required"]}
        optional = {k: _from_schema(v, path + (k,)) for k, v in props.items()
                    if k not in schema["required"]}
        return st.fixed_dictionaries(required, optional=optional)
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(_from_schema(schema["items"], path), min_size=low,
                        max_size=schema.get("maxItems", low + 2))
    low, high = schema.get("minimum", schema.get("exclusiveMinimum")), schema.get("maximum")
    if kind == "integer":
        return st.integers(low, high)
    return st.floats(low, high, exclude_min="exclusiveMinimum" in schema,
                     allow_nan=False, allow_infinity=False)


def _singular(n: int, size: float, axis: int, formulation: str) -> dict:
    """A large diagonal psi on flat data: the transverse directions shrink
    to zero at t = 1 / size, a singularity stop within a few steps."""
    matrix = [[[size if i == j == axis else 0.0, 0.0] for j in range(n)] for i in range(n)]
    return {
        "geometry": {"n": n, "activeAxes": [0, 1], "resolution": 4},
        "initialMetric": {"family": "flat"},
        "formulation": formulation,
        "source": {"kind": "psi-constant", "matrix": matrix},
        "control": {"tEnd": 2.0 / size, "dt": 0.25 / size, "snapshotEvery": 2},
    }


def _valid_data(control: dict, suite: list, seed: int) -> dict:
    """The schema's control and suite blocks on valid data, with a budget of
    one step unless the block sets one: the budget (exit 3) and the
    suite (exit 4) decide more runs than the data does."""
    return {
        "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": 4},
        "initialMetric": {"family": "random", "seed": seed},
        "control": {"maxSteps": 1, **control},
        "verifySuite": suite,
    }


def _colliding(data: dict, output: dict) -> dict:
    """Valid data whose output names collide: it must exit 1 all the same."""
    return {**data, "output": output}


# equal names, also through a path, and a snapshot's name under either key
COLLIDING_OUTPUT = st.sampled_from([
    {"diagnostics": "out.json", "reports": "out.json"},
    {"diagnostics": "out.json", "reports": "./out.json"},
    {"diagnostics": "s-00000001.snap", "snapshotPrefix": "s"},
    {"reports": "state-00000002.snap"},
])


def _block(key: str):
    return _from_schema(CONFIG_SCHEMA["properties"][key], (key,))


CONFIGS = st.one_of(
    _from_schema(CONFIG_SCHEMA),
    st.builds(_singular, st.integers(3, 4), st.floats(50.0, 200.0), st.integers(0, 2),
              st.sampled_from(["anchor", "weighted"])),
    st.builds(_valid_data, _block("control"), _block("verifySuite"), st.integers(0, 3)),
    st.builds(_colliding, st.builds(_valid_data, _block("control"), _block("verifySuite"),
                                    st.integers(0, 3)), COLLIDING_OUTPUT),
)


def _collides(output: dict) -> bool:
    """Whether the diagnostics and reports files share a name, or either has
    the name of a snapshot, ``<snapshotPrefix>-<8 digits>.snap``."""
    names = [os.path.normpath(output.get(key, default))
             for key, default in (("diagnostics", "diagnostics.jsonl"), ("reports", "reports.json"))]
    prefix = output.get("snapshotPrefix", "state") + "-"
    step = [name[len(prefix):-len(".snap")] for name in names
            if name.startswith(prefix) and name.endswith(".snap")]
    return names[0] == names[1] or any(len(s) == 8 and s.isdigit() for s in step)


def _check_contract(cfg: dict, root: str) -> int:
    config, out = os.path.join(root, "cfg.json"), os.path.join(root, "out")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", config, "--out", out])
    assert code in (0, 1, 2, 3, 4)
    if _collides(cfg.get("output", {})):
        assert code == 1
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 1
        return code
    assert stderr.getvalue() == ""

    out_cfg = cfg.get("output", {})
    with open(os.path.join(out, out_cfg.get("diagnostics", "diagnostics.jsonl")),
              encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0]["kind"] == "header" and lines[-1]["kind"] == "status"
    times = [line["t"] for line in lines[1:-1]]
    assert all(line["kind"] == "diagnostics" for line in lines[1:-1]) and times
    assert all(math.isfinite(t) for t in times) and all(np.diff(times) > 0)
    status = lines[-1]
    if status["status"] != "completed":
        assert status["detail"]
    want = EXIT_OF_STATUS[status["status"]]
    assert code == want or (want == 0 and code == 4 and cfg.get("verifySuite"))

    prefix = out_cfg.get("snapshotPrefix", "state")
    snaps = sorted(name for name in os.listdir(out)
                   if name.startswith(prefix + "-") and name.endswith(".snap"))
    assert snaps
    _, t, arrays, meta = load_snapshot(os.path.join(out, snaps[-1]))
    assert meta["status"] == status["status"] and t == status["tFinal"]
    if code == 2:
        assert np.linalg.eigvalsh(arrays["metric"]).min() >= POSITIVITY_FLOOR
    return code


def test_cli_contract_holds_for_schema_configs():
    seen = set()

    @given(CONFIGS)
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    def check(cfg):
        with tempfile.TemporaryDirectory() as root:
            seen.add(_check_contract(cfg, root))

    check()
    assert seen == {0, 1, 2, 3, 4}
