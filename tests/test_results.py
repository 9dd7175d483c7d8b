import csv
import filecmp
import json
import os
import subprocess

import numpy as np
import pytest

from mmimo_coex.config import ScenarioConfig
from mmimo_coex.engine import run_simulation
from mmimo_coex.results import DropResult, ResultSet, aggregate_cdf, emit_results


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
    for out_format, names in (
        ("csv", ("samples.csv", "access_rate.csv", "sinr_cdf.csv", "throughput_cdf.csv")),
        ("json", ("results.json",)),
    ):
        dir_a, dir_b = str(tmp_path / out_format / "a"), str(tmp_path / out_format / "b")
        emit_results(first, out_dir=dir_a, out_format=out_format)
        emit_results(second, out_dir=dir_b, out_format=out_format)
        for name in names:
            assert filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False)


def _reference_payload(results):
    """The results.json payload, row by row, as json.dump(payload, fh, indent=1) takes it."""
    cfg = results.config
    samples = []
    for d_idx, d in enumerate(results.drops):
        head = [cfg.scenario, cfg.p_tr, d_idx]
        for ap in range(3):
            if d.ap_attempts[ap] > 0:
                samples.append(head + [f"access_success_ap{ap}", d.ap_grants[ap] / d.ap_attempts[ap]])
        samples += [head + ["dl_user_sinr_db", float(v)] for v in d.sinr_db]
        samples += [head + ["dl_user_throughput_bps", d.user_throughput_bps[s]] for s in sorted(d.user_throughput_bps)]
        samples.append(head + ["dl_sum_throughput_bps", d.sum_throughput_bps])
    return {
        "schema_version": 1,
        "samples": samples,
        "access_rate_cdf": {str(ap): aggregate_cdf(results.ap_access_rate_samples(ap)) for ap in range(3)},
        "sinr_cdf": aggregate_cdf(results.sinr_samples_db()),
        "throughput_cdf": aggregate_cdf(results.sum_throughput_samples()),
    }


def _injected_results():
    """Two hand-made drops whose samples hold -inf and nan, beside a drop without attempts."""
    drops = [
        DropResult((2, 0, 1), (1, 0, 1), np.array([3.5, -np.inf, np.nan, -0.0]), {3: 1e6, 4: 0.0}, 1e6),
        DropResult((0, 0, 0), (0, 0, 0), np.array([]), {3: 0.0}, 0.0),
        DropResult((1, 1, 1), (1, 1, 0), np.array([np.nan, 12.25]), {5: 2.5e7, 3: np.nan}, np.nan),
    ]
    return ResultSet(config=ScenarioConfig(scenario="C", p_tr=0.5), drops=drops)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # percentiles of -inf and nan
@pytest.mark.parametrize("case", ["desk", "zero_drops", "no_traffic", "injected"])
def test_emit_json_equals_json_dump(case, sim_cache, tmp_path):
    if case == "desk":
        results = sim_cache("A", 1.0)[0]
    elif case == "zero_drops":
        results = run_simulation(ScenarioConfig(scenario="B", n_drops=0, seed=2))
    elif case == "no_traffic":
        results = run_simulation(ScenarioConfig(scenario="C", p_tr=0.0, n_drops=3, n_rounds=4, seed=2))
        assert results.sinr_samples_db().size == 0
    else:
        results = _injected_results()
    emit_results(results, out_dir=str(tmp_path), out_format="json")
    with open(tmp_path / "reference.json", "w") as fh:
        json.dump(_reference_payload(results), fh, indent=1)
    assert (tmp_path / "results.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    sinr = results.sinr_samples_db()
    expected = [results.sinr_percentile_db(5), results.sinr_percentile_db(50), len(sinr)]
    got = [summary["dl_sinr_p5_db"], summary["dl_sinr_p50_db"], summary["n_sinr_samples"]]
    assert json.dumps(got) == json.dumps(expected)  # NaN (no samples) compares equal as text


def test_emit_survives_a_hung_git(tiny_results, tmp_path, monkeypatch):
    def hung(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung)
    out = tmp_path / "run"
    emit_results(tiny_results, out_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == "mmimo-coex-0.1.0"
