"""Driver surface: exit codes, diagnostics stream, snapshot files, errors."""

import json

import numpy as np
import pytest

from iiblab import load_snapshot
from iiblab.cli import main
from iiblab.metrics import min_eigenvalue
from iiblab.runconfig import IDENTITY_NAMES

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

    from iiblab import DiagnosticsBaseline, compute_diagnostics

    records = [l for l in _read_jsonl(out / "diagnostics.jsonl")
               if l["kind"] == "diagnostics"]
    grid0, _, arrays0, _ = load_snapshot(out / "state-00000000.snap")
    baseline = DiagnosticsBaseline(grid0, arrays0["metric"])
    for rec in records:
        path = out / f"state-{rec['step']:08d}.snap"
        grid, t, arrays, _ = load_snapshot(path)
        redone = compute_diagnostics(
            grid, arrays["metric"], baseline, t,
            test_function=(0.02, 1.0),
        ).to_dict()
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


def test_verify_requires_suite(tmp_path, capsys):
    config = _write(tmp_path, "nosuite.json", _flat_cfg())
    assert main(["verify", "--config", config]) == 1
    assert "verifySuite" in json.loads(capsys.readouterr().err)["error"]["message"]


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
