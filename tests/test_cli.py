import json
import os

import pytest

from mmimo_coex import cli
from mmimo_coex.cli import main
from mmimo_coex.config import ScenarioConfig


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run_out"
    code = main([
        "run", "--scenario", "B", "--ptr", "1.0",
        "--drops", "3", "--rounds", "5", "--seed", "2",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "samples.csv").exists()
    stdout = capsys.readouterr().out
    assert "scenario B" in stdout
    assert "access success" in stdout


def test_run_with_config_file(tmp_path):
    cfg = ScenarioConfig(scenario="A", n_drops=2, n_rounds=4, seed=3, out_dir=str(tmp_path / "cfg_out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "cfg_out" / "manifest.json").exists()


def test_run_cli_overrides_config(tmp_path):
    cfg = ScenarioConfig(scenario="A", n_drops=2, n_rounds=4, seed=3, out_dir=str(tmp_path / "base"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "over"
    assert main(["run", "--config", str(path), "--scenario", "C", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenario"] == "C"


def test_sweep_writes_grid(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--scenarios", "A,B", "--ptrs", "1.0",
        "--drops", "2", "--rounds", "4", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "A_ptr1" / "manifest.json").exists()
    assert (out / "B_ptr1" / "manifest.json").exists()
    assert (out / "sweep_summary.csv").exists()


def test_validate_config_ok(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"scenario": "C", "p_tr": 0.1}))
    assert main(["validate-config", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_config_bad(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "C", "p_tr": 7.0, "mystery": 1}))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate-config"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert str(path) in err
    assert len(err.splitlines()) == 1


def test_validate_config_rejects_mistyped_and_non_finite_values(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p_tr": "1.0", "floor_width_m": float("nan"), "n_drops": 2.5}))
    assert main(["validate-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert all(name in err for name in ("p_tr", "floor_width_m", "n_drops"))


def test_sweep_rejects_non_numeric_ptrs(tmp_path, capsys):
    assert main(["sweep", "--ptrs", "abc", "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--ptrs" in err


def test_run_rejects_invalid_override(tmp_path, capsys):
    code = main(["run", "--scenario", "A", "--ptr", "2.0", "--drops", "1", "--rounds", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "p_tr" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unwritable_out_dir_exits_2_before_simulating(tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "out"
    monkeypatch.setattr(cli, "run_simulation", lambda cfg: pytest.fail("simulated before probing --out"))
    assert main([command, "--drops", "1", "--rounds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(out) in err


def test_sweep_rejects_empty_scenario_list(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenarios", ",", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "--scenarios" in err
    assert not out.exists()


def test_sweep_validates_every_cell_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_simulation", lambda cfg: pytest.fail("ran a cell before the grid was validated"))
    assert main(["sweep", "--scenarios", "A,Z", "--ptrs", "1.0", "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "scenario" in err


@pytest.mark.parametrize("scenarios, ptrs", [("A", "1,1.0"), ("A,a", "1"), ("A", "0.1,0.1000001")])
def test_sweep_rejects_a_repeated_cell_before_running(tmp_path, capsys, monkeypatch, scenarios, ptrs):
    # the same (scenario, p_tr) after validation, or the same output directory
    monkeypatch.setattr(cli, "run_simulation", lambda cfg: pytest.fail("ran a cell of a grid that repeats a cell"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenarios", scenarios, "--ptrs", ptrs, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "sweep cells" in err
    assert not out.exists()
