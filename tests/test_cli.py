"""Driver surface: exit codes, diagnostics stream, snapshot files, errors."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import iiblab
from iiblab import TorusGrid, cli, flow, load_snapshot, save_snapshot
from iiblab.cli import main
from iiblab.flow import POSITIVITY_FLOOR
from iiblab.forms import wedge_block
from iiblab.metrics import min_eigenvalue
from iiblab.runconfig import IDENTITY_NAMES, resolve_config

RES = 8


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _flat_cfg(**over):
    cfg = {
        "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": RES},
        "initialMetric": {"family": "flat"},
        "control": {"tEnd": 0.01, "dt": 1e-3, "diagnosticsEvery": 2},
    }
    cfg.update(over)
    return cfg


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_run_flat_completes_clean(tmp_path, capsys):
    config = _write(tmp_path, "flat.json", _flat_cfg())
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == 0
    assert "status=completed" in capsys.readouterr().out

    lines = _read_jsonl(out / "diagnostics.jsonl")
    assert lines[0]["kind"] == "header"
    assert lines[0]["config"]["geometry"]["resolution"] == RES
    assert lines[0]["config"]["control"]["maxSteps"] == 200_000
    assert lines[-1]["kind"] == "status"
    assert lines[-1]["status"] == "completed"
    assert lines[-1]["stepsTaken"] == 10

    records = [l for l in lines if l["kind"] == "diagnostics"]
    times = [r["t"] for r in records]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.01)
    # a flat start with no source is a fixed point: nothing drifts
    for r in records:
        assert r["detHMin"] == pytest.approx(1.0, abs=1e-12)
        assert r["sMax"] <= 1e-24

    # only the final snapshot is written when no cadence is configured
    snaps = sorted(out.glob("state-*.snap"))
    assert [s.name for s in snaps] == ["state-00000010.snap"]
    grid, t, arrays, meta = load_snapshot(snaps[0])
    assert t == pytest.approx(0.01)
    assert meta["status"] == "completed"
    assert meta["formulation"] == "weighted"


def test_run_snapshot_cadence_and_determinism(tmp_path):
    cfg = _flat_cfg(initialMetric={"family": "random", "seed": 5})
    cfg["control"]["snapshotEvery"] = 5
    config = _write(tmp_path, "rand.json", cfg)

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        outs.append(out)

    names = sorted(p.name for p in outs[0].glob("state-*.snap"))
    assert names == ["state-00000000.snap", "state-00000005.snap", "state-00000010.snap"]

    # repeat runs are byte-identical, diagnostics and snapshots both
    a, b = outs
    assert (a / "diagnostics.jsonl").read_bytes() == (b / "diagnostics.jsonl").read_bytes()
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_recompute_from_snapshots_matches_stream(tmp_path):
    cfg = _flat_cfg(initialMetric={"family": "random", "seed": 6},
                    testFunction={"epsilon": 0.02, "a": 1.0})
    cfg["control"]["snapshotEvery"] = 2  # same cadence as diagnostics
    config = _write(tmp_path, "re.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0

    from iiblab import ChernPackage, compute_diagnostics

    records = [l for l in _read_jsonl(out / "diagnostics.jsonl")
               if l["kind"] == "diagnostics"]
    grid0, _, arrays0, _ = load_snapshot(out / "state-00000000.snap")
    baseline = ChernPackage(grid0, arrays0["metric"])
    for rec in records:
        path = out / f"state-{rec['step']:08d}.snap"
        _, t, arrays, _ = load_snapshot(path)
        redone = compute_diagnostics(arrays["metric"], baseline, t, test_function=(0.02, 1.0))
        for key, value in redone.items():
            assert rec[key] == value, key


def test_run_singularity_exit_and_last_state(tmp_path, capsys):
    cfg = _flat_cfg(
        formulation="anchor",
        source={"kind": "psi-constant",
                "matrix": [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(3)]
                           for i in range(3)]},
    )
    cfg["control"] = {"tEnd": 2.0, "dt": 0.01}
    config = _write(tmp_path, "sing.json", cfg)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == 2
    assert "singularity-stop" in capsys.readouterr().out

    lines = _read_jsonl(out / "diagnostics.jsonl")
    assert lines[-1]["status"] == "singularity-stop"
    # the transverse block shrinks linearly; the stop lands right at the wall
    assert lines[-1]["tFinal"] == pytest.approx(1.0, abs=0.02)

    final = sorted(out.glob("state-*.snap"))[-1]
    _, _, arrays, meta = load_snapshot(final)
    assert meta["status"] == "singularity-stop"
    assert min_eigenvalue(arrays["metric"]) > 0.0


def test_weighted_run_with_an_anchor_source_stops_at_the_singular_time(tmp_path, capsys):
    # the anchor source of the test above, in the weighted formulation: w stays
    # above the floor while its metric degenerates, so the metric's gate stops it
    dt = 0.01
    cfg = _flat_cfg(
        formulation="weighted",
        source={"kind": "psi-constant",
                "matrix": [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(3)]
                           for i in range(3)]},
    )
    cfg["control"] = {"tEnd": 2.0, "dt": dt}
    config = _write(tmp_path, "wsing.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    assert "singularity-stop" in capsys.readouterr().out

    status = _read_jsonl(out / "diagnostics.jsonl")[-1]
    assert status["status"] == "singularity-stop"
    assert status["detail"].startswith("metric min eigenvalue")
    assert status["tFinal"] <= 1.0 + dt

    final = sorted(out.glob("state-*.snap"))[-1]
    _, t, arrays, meta = load_snapshot(final)
    assert meta["status"] == "singularity-stop" and t == status["tFinal"]
    assert min_eigenvalue(arrays["metric"]) >= POSITIVITY_FLOOR


def test_anchor_run_with_a_failed_solve_exits_two(tmp_path, capsys, monkeypatch):
    def singular(theta):
        W = wedge_block(theta)
        W[..., :, 0] = 0.0
        return W

    monkeypatch.setattr(flow, "wedge_block", singular)
    cfg = _flat_cfg(
        formulation="anchor",
        initialMetric={"family": "balanced-family",
                       "fourierTerms": [[1, 1, 0.0, -0.05], [1, -1, 0.0, -0.05]]},
    )
    cfg["control"] = {"tEnd": 2e-5, "dt": 1e-5}
    config = _write(tmp_path, "solve.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    assert "singularity-stop" in capsys.readouterr().out

    status = _read_jsonl(out / "diagnostics.jsonl")[-1]
    assert status["status"] == "singularity-stop" and status["stepsTaken"] == 0
    assert status["detail"].startswith("anchor velocity solve failed")
    final = sorted(out.glob("state-*.snap"))[-1]
    _, t, arrays, meta = load_snapshot(final)
    assert meta["status"] == "singularity-stop" and t == 0.0
    initial = resolve_config(json.loads((tmp_path / "solve.json").read_text())).initial_metric
    assert np.array_equal(arrays["metric"], initial)


def test_run_budget_exhaustion_is_blowup_exit(tmp_path, capsys):
    cfg = _flat_cfg()
    cfg["control"] = {"tEnd": 1.0, "dt": 1e-3, "maxSteps": 5, "diagnosticsEvery": 2}
    config = _write(tmp_path, "budget.json", cfg)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out)])
    assert code == 3
    assert "status=blowup steps=5" in capsys.readouterr().out

    # the stop writes what a clean run writes: records, status, final state
    lines = _read_jsonl(out / "diagnostics.jsonl")
    assert lines[0]["kind"] == "header"
    assert [l["step"] for l in lines if l["kind"] == "diagnostics"] == [0, 2, 4, 5]
    status = lines[-1]
    assert status["kind"] == "status"
    assert status["status"] == "blowup"
    assert status["stepsTaken"] == 5
    assert status["tFinal"] == pytest.approx(5e-3)
    assert "step budget" in status["detail"]

    snaps = sorted(out.glob("state-*.snap"))
    assert [s.name for s in snaps] == ["state-00000005.snap"]
    _, t, arrays, meta = load_snapshot(snaps[0])
    assert t == pytest.approx(5e-3)
    assert meta["status"] == "blowup"
    assert np.array_equal(arrays["metric"], np.broadcast_to(np.eye(3), (RES, RES, 3, 3)))


@pytest.mark.parametrize("formulation", ["weighted", "anchor"])
def test_run_without_dt_steps_adaptively(tmp_path, capsys, formulation):
    cfg = _flat_cfg(
        initialMetric={
            "family": "balanced-family",
            "fourierTerms": [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]],
        },
        formulation=formulation,
    )
    cfg["control"] = {"tEnd": 1e-3}
    config = _write(tmp_path, "adaptive.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out),
                 "--resolution", "16"]) == 0
    assert "status=completed" in capsys.readouterr().out
    lines = _read_jsonl(out / "diagnostics.jsonl")
    assert "dt" not in lines[0]["config"]["control"]
    assert lines[-1]["status"] == "completed" and lines[-1]["stepsTaken"] > 0
    assert lines[-1]["tFinal"] == pytest.approx(1e-3, rel=1e-15)


def test_run_with_a_passing_suite_writes_reports(tmp_path, capsys):
    cfg = _flat_cfg(verifySuite=[{"identity": "bianchi"}, {"identity": "dilaton"}])
    config = _write(tmp_path, "suite.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert "status=completed" in capsys.readouterr().out
    doc = json.loads((out / "reports.json").read_text())
    assert doc["allPass"] is True
    assert [r["identityName"] for r in doc["reports"]] == [
        "bianchi-first", "bianchi-first-conjugate",
        "bianchi-second", "bianchi-second-conjugate",
        "dilaton-evolution-rate", "dilaton-evolution-heat",
    ]


def test_run_with_a_failing_suite_exits_four_and_keeps_its_output(tmp_path, capsys):
    cfg = _flat_cfg(
        initialMetric={"family": "random", "seed": 3},
        verifySuite=[{"identity": "quasilinear", "tolerance": 0.0}],
    )
    config = _write(tmp_path, "tol0.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 4
    assert "status=completed" in capsys.readouterr().out
    assert json.loads((out / "reports.json").read_text())["allPass"] is False
    # the run itself completed: its records, status and final state are all there
    lines = _read_jsonl(out / "diagnostics.jsonl")
    assert [r["step"] for r in lines if r["kind"] == "diagnostics"] == [0, 2, 4, 6, 8, 10]
    assert lines[-1] == {"kind": "status", "status": "completed",
                         "stepsTaken": 10, "tFinal": lines[-2]["t"]}
    assert [p.name for p in out.glob("state-*.snap")] == ["state-00000010.snap"]
    _, t, _, meta = load_snapshot(out / "state-00000010.snap")
    assert t == lines[-1]["tFinal"] and meta["status"] == "completed"


def test_config_errors_exit_one_with_json(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "none.json")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 1
    assert err["error"]["type"] == "ConfigError"

    cfg = _flat_cfg()
    cfg["geometry"]["n"] = 2
    config = _write(tmp_path, "n2.json", cfg)
    assert main(["run", "--config", config]) == 1
    assert "degenerate" in json.loads(capsys.readouterr().err)["error"]["message"]

    # a balanced-family profile along real axis 2 is off the balanced locus
    cfg = _flat_cfg(initialMetric={"family": "balanced-family",
                                   "fourierTerms": [[1, 1, 0.0, -0.15]]})
    cfg["geometry"]["activeAxes"] = [0, 2]
    config = _write(tmp_path, "off.json", cfg)
    assert main(["run", "--config", config, "--out", str(tmp_path / "off")]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and "real axis 2" in err["message"]


def _config_error(capsys, argv):
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and err["code"] == 1
    return err["message"]


def test_non_finite_end_time_exits_one(tmp_path, capsys):
    cfg = _flat_cfg()
    cfg["control"]["tEnd"] = float("nan")
    config = _write(tmp_path, "nan.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message == "config invalid at control/tEnd: nan is not a finite number"
    assert not (tmp_path / "o").exists()


def test_non_finite_step_exits_one(tmp_path, capsys):
    cfg = _flat_cfg()
    cfg["control"]["dt"] = float("nan")
    config = _write(tmp_path, "nan.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message == "config invalid at control/dt: nan is not a finite number"


def test_non_finite_fourier_coefficient_exits_one(tmp_path, capsys):
    cfg = _flat_cfg(initialMetric={"family": "balanced-family",
                                   "fourierTerms": [[1, 0, float("inf"), -0.05]]})
    config = _write(tmp_path, "inf.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message == (
        "config invalid at initialMetric/fourierTerms/0/2: inf is not a finite number"
    )
    cfg["initialMetric"]["fourierTerms"][0][2] = float("nan")
    config = _write(tmp_path, "nan.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message.startswith("config invalid at initialMetric/fourierTerms/0/2: nan")


@pytest.mark.parametrize("block, key, value, path", [
    ("geometry", "resolution", 8.0, "geometry/resolution"),
    ("control", "snapshotEvery", 1.0, "control/snapshotEvery"),
    ("geometry", "n", 3.0, "geometry/n"),
    ("initialMetric", "seed", 1.0, "initialMetric/seed"),
])
def test_integer_fields_take_json_integers(tmp_path, capsys, block, key, value, path):
    cfg = _flat_cfg(initialMetric={"family": "random", "seed": 1})
    cfg[block][key] = value
    config = _write(tmp_path, "float.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message == f"config invalid at {path}: {value!r} is not of type 'integer'"


def _malformed_snapshot(tmp_path, name, header_change, array="metric"):
    grid = TorusGrid(3, (0, 1), RES)
    path = tmp_path / name
    save_snapshot(path, grid, 0.0, {array: np.zeros(grid.shape + (3, 3))})
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header_change(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


def test_snapshot_info_on_malformed_header_exits_one(tmp_path, capsys):
    snap = _malformed_snapshot(tmp_path, "not.snap", lambda h: h.__setitem__("arrays", 5))
    assert main(["snapshot-info", str(snap)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SnapshotFormatError" and err["offset"] == 0


def test_phi_field_with_malformed_header_exits_one(tmp_path, capsys):
    _malformed_snapshot(tmp_path, "phi.snap", lambda h: h.pop("t"), array="phi")
    config = _write(tmp_path, "phi.json", _flat_cfg(source={"kind": "phi-field",
                                                           "path": "phi.snap"}))
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert message.startswith("source.path") and "time stamp" in message


def test_cli_import_leaves_jsonschema_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(iiblab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import iiblab.cli, sys; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_non_finite_phi_field_exits_one(tmp_path, capsys):
    grid = TorusGrid(3, (0, 1), RES)
    phi = np.zeros(grid.shape + (3, 3), dtype=complex)
    phi[2, 3, 1, 1] = np.nan
    save_snapshot(tmp_path / "phi.snap", grid, 0.0, {"phi": phi})
    cfg = _flat_cfg(source={"kind": "phi-field", "path": "phi.snap"})
    config = _write(tmp_path, "phi.json", cfg)
    message = _config_error(capsys, ["run", "--config", config, "--out", str(tmp_path / "o")])
    assert "'phi'" in message and "non-finite" in message


def test_verify_passes_on_balanced_family(tmp_path, capsys):
    cfg = _flat_cfg(
        initialMetric={
            "family": "balanced-family",
            "fourierTerms": [[1, 1, 0.0, -0.05], [1, -1, 0.0, -0.05]],
        },
        verifySuite=[
            {"identity": "tau"},
            # the family's exponential profile is not band limited, so the
            # oracle difference sits above the random-family default here
            {"identity": "bianchi", "tolerance": 1e-4},
            {"identity": "trh"},
            {"identity": "dilaton"},
        ],
    )
    cfg["control"] = {"tEnd": 0.001, "dt": 1e-5}
    config = _write(tmp_path, "bal.json", cfg)
    out = tmp_path / "out"
    # library default tolerances are calibrated for resolution 32
    code = main(["verify", "--config", config, "--out", str(out),
                 "--resolution", "32"])
    captured = capsys.readouterr().out
    assert code == 0, captured
    assert "FAIL" not in captured

    doc = json.loads((out / "reports.json").read_text())
    assert doc["kind"] == "verification"
    assert doc["allPass"] is True
    names = {r["identityName"] for r in doc["reports"]}
    assert any("trh" in n for n in names)
    assert any("tau" in n for n in names)
    for r in doc["reports"]:
        assert set(r) == {
            "identityName", "maxResidual", "meanResidual", "tolerance",
            "gridSpec", "oracleSpec", "pass", "status", "detail",
        }


def test_verify_tolerance_zero_fails_with_exit_four(tmp_path, capsys):
    cfg = _flat_cfg(
        initialMetric={"family": "random", "seed": 3},
        verifySuite=[{"identity": "quasilinear", "tolerance": 0.0}],
    )
    config = _write(tmp_path, "tol0.json", cfg)
    out = tmp_path / "out"
    code = main(["verify", "--config", config, "--out", str(out)])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads((out / "reports.json").read_text())
    assert doc["allPass"] is False


def test_verify_runs_every_registry_identity(tmp_path):
    cfg = _flat_cfg(verifySuite=[{"identity": name} for name in IDENTITY_NAMES])
    config = _write(tmp_path, "all.json", cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", config, "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())["reports"]
    assert [r["identityName"] for r in reports] == [
        "bianchi-first", "bianchi-first-conjugate",
        "bianchi-second", "bianchi-second-conjugate",
        "commutator-covector", "commutator-covector-barred",
        "connection-difference", "s-two-path",
        "quasilinear-second-ricci",
        "stationarity-balanced", "stationarity-source",
        "tau-torsion-trace",
        "dilaton-evolution-rate", "dilaton-evolution-heat",
        "s-evolution", "s-evolution-connection-rate", "s-evolution-connection-heat",
        "trh-evolution",
    ]
    # every identity holds exactly on flat data
    assert all(r["maxResidual"] == 0.0 for r in reports)


def test_verify_stationarity_receives_the_anchor_source(tmp_path):
    cfg = _flat_cfg(
        source={"kind": "psi-constant",
                "matrix": [[[0.125 if i == j == 0 else 0.0, 0.0] for j in range(3)]
                           for i in range(3)]},
        verifySuite=[{"identity": "stationarity"}],
    )
    config = _write(tmp_path, "psi.json", cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", config, "--out", str(out)]) == 4
    reports = json.loads((out / "reports.json").read_text())["reports"]
    by_name = {r["identityName"]: r for r in reports}
    assert by_name["stationarity-source"]["maxResidual"] == 0.125


def test_verify_stationarity_with_a_phi_field_exits_one(tmp_path, capsys):
    grid = TorusGrid(3, (0, 1), RES)
    phi = np.zeros(grid.shape + (3, 3), dtype=complex)
    phi[..., 1, 1] = 5.0
    save_snapshot(tmp_path / "phi.snap", grid, 0.0, {"phi": phi})
    cfg = _flat_cfg(source={"kind": "phi-field", "path": "phi.snap"},
                    verifySuite=[{"identity": "stationarity"}])
    config = _write(tmp_path, "phi.json", cfg)
    message = _config_error(capsys, ["verify", "--config", config, "--out", str(tmp_path / "o")])
    assert "stationarity" in message and "phi-field" in message


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_failed_precondition_report_is_strict_json(tmp_path, capsys):
    # the random family is not conformally balanced, so tau does not apply
    suite = ["connection-difference", "bianchi", "commutator", "quasilinear",
             "trh", "dilaton", "s-evolution", "tau"]
    cfg = {
        "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": 32},
        "initialMetric": {"family": "random", "seed": 0},
        "formulation": "weighted",
        "control": {"tEnd": 4e-5, "dt": 1e-5},
        "verifySuite": [{"identity": name} for name in suite],
    }
    config = _write(tmp_path, "tau.json", cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", config, "--out", str(out)]) == 4
    printed = capsys.readouterr().out.splitlines()

    doc = json.loads((out / "reports.json").read_text(), parse_constant=_refuse_constant)
    *others, tau = doc["reports"]
    assert all(r["pass"] for r in others)
    assert tau["identityName"] == "tau-torsion-trace"
    assert tau["maxResidual"] is None and tau["meanResidual"] is None
    assert tau["pass"] is False and tau["status"] == "precondition-failed"
    assert printed[-1] == "FAIL tau-torsion-trace: precondition-failed tol=1.000e-08"


def test_verify_requires_suite(tmp_path, capsys):
    config = _write(tmp_path, "nosuite.json", _flat_cfg())
    assert main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert "verifySuite" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not (tmp_path / "o").exists()


def test_resolution_override_lands_in_header(tmp_path):
    config = _write(tmp_path, "flat.json", _flat_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out),
                 "--resolution", "16"]) == 0
    header = _read_jsonl(out / "diagnostics.jsonl")[0]
    assert header["config"]["geometry"]["resolution"] == 16


def test_snapshot_info_command(tmp_path, capsys):
    config = _write(tmp_path, "flat.json", _flat_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()

    snap = sorted(out.glob("state-*.snap"))[-1]
    assert main(["snapshot-info", str(snap)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["geometry"] == {"n": 3, "activeAxes": [0, 1], "resolution": RES}
    assert info["arrays"][0]["name"] == "metric"

    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"garbage without newline")
    assert main(["snapshot-info", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SnapshotFormatError"
    assert err["error"]["offset"] == 0


FAULT_PROBE = """
import resource
from iiblab import cli, flow
from iiblab.runconfig import resolve_config
cli._keep_freed_memory()
rc = resolve_config({
    "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": 32},
    "initialMetric": {"family": "random", "seed": 0},
    "formulation": "weighted",
    "control": {"tEnd": 1e-4, "dt": 1e-5},
})
w = flow.hermitize(flow.weighted_from_metric(rc.initial_metric))
for _ in range(3):
    flow.weighted_velocity(rc.grid, w)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    flow.weighted_velocity(rc.grid, w)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator policy")
def test_weighted_right_hand_side_keeps_its_memory():
    """With the CLI's allocator policy, warm weighted right-hand sides reuse
    freed blocks instead of faulting fresh pages in (module docstring of
    ``iiblab.cli``).  Measured: 4-5 minor faults in 20 calls at R = 32, and
    about 10k with glibc's defaults."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(iiblab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                           capture_output=True, text=True)
    assert int(probe.stdout) < 200


def test_main_runs_without_mallopt(tmp_path, monkeypatch):
    """Where the C library has no ``mallopt`` the allocator policy is skipped."""
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    config = _write(tmp_path, "flat.json", _flat_cfg())
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
