import csv
import filecmp
import json
import os
import subprocess

import numpy as np
import pytest

from mmimo_coex.config import ScenarioConfig
from mmimo_coex.engine import run_simulation
from mmimo_coex.results import aggregate_cdf, emit_results


def test_cdf_singleton():
    assert aggregate_cdf([3]) == [(3.0, 1.0)]


def test_cdf_median_crossing():
    cdf = aggregate_cdf([4, 2, 1, 3])
    assert cdf == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]
    at_half = [v for v, p in cdf if p == 0.5]
    assert at_half == [2.0]


def test_cdf_empty():
    assert aggregate_cdf([]) == []


def test_cdf_monotone_to_one():
    rng = np.random.default_rng(0)
    cdf = aggregate_cdf(rng.normal(size=500))
    values = [v for v, _ in cdf]
    probs = [p for _, p in cdf]
    assert values == sorted(values)
    assert probs[0] == pytest.approx(1 / 500)
    assert probs[-1] == 1.0
    assert all(b >= a for a, b in zip(probs, probs[1:]))


@pytest.fixture(scope="module")
def tiny_results():
    cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=5, n_rounds=10, seed=3)
    return run_simulation(cfg)


def test_emit_csv_layout(tiny_results, tmp_path):
    out = tmp_path / "run"
    paths = emit_results(tiny_results, out_dir=str(out))
    names = {os.path.basename(p) for p in paths}
    assert names == {"samples.csv", "access_rate.csv", "sinr_cdf.csv", "throughput_cdf.csv", "manifest.json"}
    with open(out / "samples.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["scenario", "p_tr", "drop", "metric", "value"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["config"]["scenario"] == "C"
    assert len(manifest["summary"]["ap_access_success"]) == 3


def test_emit_round_trip_cdf(tiny_results, tmp_path):
    out = tmp_path / "run"
    emit_results(tiny_results, out_dir=str(out))
    with open(out / "sinr_cdf.csv") as fh:
        reader = csv.reader(fh)
        next(reader)
        read_back = [(float(v), float(p)) for v, p in reader]
    assert read_back == aggregate_cdf(tiny_results.sinr_samples_db())


def test_emit_json_format(tiny_results, tmp_path):
    out = tmp_path / "json_run"
    paths = emit_results(tiny_results, out_dir=str(out), out_format="json")
    names = {os.path.basename(p) for p in paths}
    assert names == {"results.json", "manifest.json"}
    payload = json.loads((out / "results.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["sinr_cdf"]
    assert set(payload["access_rate_cdf"]) == {"0", "1", "2"}


def test_emit_unwritable_path_names_target(tiny_results, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    target = str(blocker / "out")
    with pytest.raises(OSError, match="blocker"):
        emit_results(tiny_results, out_dir=target)


def test_emit_byte_identical_across_runs(tmp_path):
    cfg = dict(scenario="B", p_tr=1.0, n_drops=4, n_rounds=8, seed=7)
    first = run_simulation(ScenarioConfig(**cfg))
    second = run_simulation(ScenarioConfig(**cfg))
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    emit_results(first, out_dir=dir_a)
    emit_results(second, out_dir=dir_b)
    for name in ("samples.csv", "access_rate.csv", "sinr_cdf.csv", "throughput_cdf.csv"):
        assert filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False)


def test_emit_survives_a_hung_git(tiny_results, tmp_path, monkeypatch):
    def hung(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung)
    out = tmp_path / "run"
    emit_results(tiny_results, out_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == "mmimo-coex-0.1.0"
