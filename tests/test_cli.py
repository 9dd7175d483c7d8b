import csv
import json
import os
import re

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


def _summary_row(summary):
    """A sweep_summary.csv row, as text, from one manifest summary; null is an empty cell."""
    numbers = [summary["scenario"], summary["p_tr"], *summary["ap_access_success"]]
    numbers += [summary["median_dl_sum_throughput_bps"], summary["dl_sinr_p5_db"]]
    return ["" if v is None else str(v) for v in numbers]


def _strict_json(path):
    """Parse a file as strict JSON: NaN, Infinity and -Infinity are rejected."""

    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_run_prints_its_manifest_summary(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--drops", "3", "--rounds", "5", "--seed", "2", "--out", str(out)]
    assert main(["run", "--scenario", "C", "--ptr", "1.0", *args]) == 0
    stdout = capsys.readouterr().out
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    printed = re.findall(r"AP(\d) access success: (\S+)", stdout)
    assert printed == [(str(ap), f"{v:.3f}") for ap, v in enumerate(summary["ap_access_success"])]
    assert f"median DL sum user throughput: {summary['median_dl_sum_throughput_bps'] / 1e6:.2f} Mb/s" in stdout
    assert f"DL user SINR p5/p50: {summary['dl_sinr_p5_db']:.2f} / {summary['dl_sinr_p50_db']:.2f} dB" in stdout


def test_sweep_summary_rows_are_the_cell_manifests(tmp_path):
    out = tmp_path / "sweep"
    args = ["--drops", "2", "--rounds", "3", "--seed", "5", "--out", str(out)]
    assert main(["sweep", "--scenarios", "a,C", "--ptrs", "0.1,1.0", *args]) == 0
    with open(out / "sweep_summary.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["scenario", "p_tr", "access_ap0", "access_ap1", "access_ap2", "median_sum_throughput_bps", "sinr_p5_db"]
    cells = ["a_ptr0.1", "a_ptr1", "C_ptr0.1", "C_ptr1"]
    summaries = [json.loads((out / cell / "manifest.json").read_text())["summary"] for cell in cells]
    assert rows == [_summary_row(s) for s in summaries]
    assert [row[0] for row in rows] == ["A", "A", "C", "C"]  # the canonical letter, not the spelling given


@pytest.mark.parametrize("override", [["--ptr", "0"], ["--drops", "0"]])
def test_statistics_without_samples_are_null_in_the_manifest(override, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--scenario", "C", "--drops", "2", "--rounds", "3", "--seed", "4", "--out", str(out)]
    assert main(["run", *args, *override]) == 0
    summary = _strict_json(out / "manifest.json")["summary"]
    assert summary["ap_access_success"] == [None, None, None]
    assert summary["dl_sinr_p5_db"] is None and summary["dl_sinr_p50_db"] is None
    assert summary["n_sinr_samples"] == 0
    stdout = capsys.readouterr().out
    assert "AP1 access success: n/a" in stdout
    assert "DL user SINR p5/p50: n/a / n/a dB" in stdout


def test_sweep_writes_an_empty_cell_for_a_statistic_without_samples(tmp_path):
    out = tmp_path / "sweep"
    args = ["--drops", "2", "--rounds", "3", "--seed", "4", "--out", str(out)]
    assert main(["sweep", "--scenarios", "B", "--ptrs", "0,1", *args]) == 0
    with open(out / "sweep_summary.csv", newline="") as fh:
        _, idle, busy = list(csv.reader(fh))
    assert idle[2:5] == ["", "", ""] and idle[6] == ""
    assert all(busy[2:7])
    for cell in ("B_ptr0", "B_ptr1"):
        _strict_json(out / cell / "manifest.json")
