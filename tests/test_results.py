import csv
import filecmp
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mmimo_coex
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.engine import run_simulation
from mmimo_coex.geometry import ap_corridor_x
from mmimo_coex.results import DropResult, ResultSet, _percentile, aggregate_cdf, emit_results


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


def _reference_tables(results):
    """The four CSV tables, header first, row by row, from the same reference rows."""
    payload = _reference_payload(results)
    ap_x = ap_corridor_x(results.config.floor_width_m)
    access = [[ap, ap_x[ap], value, prob] for ap in range(3) for value, prob in payload["access_rate_cdf"][str(ap)]]
    return {
        "samples.csv": [["scenario", "p_tr", "drop", "metric", "value"]] + payload["samples"],
        "access_rate.csv": [["ap_index", "ap_x_m", "value", "prob"]] + access,
        "sinr_cdf.csv": [["value_db", "prob"]] + payload["sinr_cdf"],
        "throughput_cdf.csv": [["value_bps", "prob"]] + payload["throughput_cdf"],
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

    # the same results as CSV: each table equals a csv.writer reference written row by row
    emit_results(results, out_dir=str(tmp_path / "csv"), out_format="csv")
    for name, rows in _reference_tables(results).items():
        with open(tmp_path / f"reference_{name}", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row)
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / f"reference_{name}").read_bytes(), name

    summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
    sinr = results.sinr_samples_db()
    expected = [results.sinr_percentile_db(5), results.sinr_percentile_db(50), len(sinr)]
    expected = [v if np.isfinite(v) else None for v in expected]  # no samples: null
    got = [summary["dl_sinr_p5_db"], summary["dl_sinr_p50_db"], summary["n_sinr_samples"]]
    assert got == expected


def test_emit_starts_no_process_and_writes_the_package_version(tiny_results, tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError(f"emit_results started a process: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    for out_format in ("csv", "json"):
        out = tmp_path / out_format
        emit_results(tiny_results, out_dir=str(out), out_format=out_format)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == "mmimo-coex-" + mmimo_coex.__version__


def test_package_version_matches_pyproject():
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version\s*=\s*"([^"]+)"$', project, re.M).group(1) == mmimo_coex.__version__


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # numpy's percentiles of -inf
@pytest.mark.parametrize(
    "samples",
    [[7.25], [2.0, -1.5], [3.0, 1.0, 3.0, 1.0, 2.0, 3.0, 2.0, 2.0], [-np.inf, 3.5, np.nan, 12.25], [-np.inf, 3.5, 12.25]]
    + [np.random.default_rng(4).normal(10.0, 8.0, n).tolist() for n in (500, 501)],
    ids=["one", "two", "ties", "nan", "inf", "normal-500", "normal-501"],
)
def test_percentile_and_median_equal_numpys_bit_for_bit(samples):
    for q in (0, 5, 50, 100):
        assert _percentile(np.array(samples), q).hex() == float(np.percentile(samples, q)).hex(), q
    drops = [DropResult((0, 0, 0), (0, 0, 0), np.array([]), {}, v) for v in samples]
    assert ResultSet(ScenarioConfig(), drops).median_sum_throughput().hex() == float(np.median(samples)).hex()


def test_emit_results_leaves_numpy_ma_unimported(tmp_path):
    """np.median and np.percentile import numpy.ma on first use, and
    statistics imports fractions and decimal, which a fresh process would pay
    for inside emit_results."""
    script = f"""
import sys
from mmimo_coex import ScenarioConfig
from mmimo_coex.engine import run_simulation
from mmimo_coex.results import emit_results
for out_format in ("csv", "json"):
    cfg = ScenarioConfig(n_drops=2, n_rounds=3, out_dir={str(tmp_path)!r} + "/" + out_format, out_format=out_format)
    emit_results(run_simulation(cfg))
print("numpy.ma" in sys.modules, "statistics" in sys.modules)
"""
    src = str(pathlib.Path(mmimo_coex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False False\n"
    assert (tmp_path / "json" / "results.json").exists() and (tmp_path / "csv" / "samples.csv").exists()
