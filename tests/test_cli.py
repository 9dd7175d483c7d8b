import json
import os

import pytest

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
