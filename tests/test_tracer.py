"""The benchmark's tracer still finds every layer boundary it wraps.

`simbench/tracer.py` patches the simulator from outside, by name; a refactor
that renames or moves one of those names would silently drop a per-layer
metric. The tracer is imported by path, so this test needs no change there.
"""

import importlib.util
import pathlib

from mmimo_coex import engine, results
from mmimo_coex.config import ScenarioConfig

TRACER_PATH = pathlib.Path(__file__).parents[1] / "simbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("simbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_them(tmp_path):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    originals = (engine.run_simulation, engine.run_round, results.emit_results)
    tracer_mod.trace_simulator(tracer, engine, results)
    try:
        # the engine forms no covariance, so channel.covariance reads 0 by design
        assert tracer.missing == ["mmimo_coex.engine.received_covariance"]
        cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=2, n_rounds=5, seed=3, out_dir=str(tmp_path))
        res = engine.run_simulation(cfg)
        results.emit_results(res)
    finally:
        assert tracer.restore()
    assert (engine.run_simulation, engine.run_round, results.emit_results) == originals

    layers = tracer.layer_totals()
    assert layers[tracer_mod.DROP_SPAN]["calls"] == cfg.n_drops
    assert layers["engine.run_round"]["calls"] == cfg.n_drops * cfg.n_rounds
    for name in ("engine.cca_lbt", "engine.cca_elbt", "beamforming.precode", "phy.sinr", "results.emit"):
        assert layers[name]["calls"] > 0, name
    # every eLBT subspace, on either branch, is one beamforming.subspace span
    assert layers["beamforming.subspace"]["calls"] == layers["engine.cca_elbt"]["calls"] > 0
    # count_round reads the RoundOutcome that run_round returns, the record run_drop folds
    assert tracer.counts["phy.scheduled_users"] == len(res.sinr_samples_db())
    ap_attempts = sum(sum(d.ap_attempts) for d in res.drops)
    assert tracer.counts["mac.attempts"] >= ap_attempts > 0


def test_scenario_a_reaches_every_single_antenna_layer():
    # Scenario A has only single-antenna links; a fast path for them that
    # bypassed a wrapped name would silently read 0 in that layer's metric.
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.trace_simulator(tracer, engine, results)
    try:
        engine.run_simulation(ScenarioConfig(scenario="A", p_tr=1.0, n_drops=3, n_rounds=4, seed=5))
    finally:
        assert tracer.restore()
    layers = tracer.layer_totals()
    for name in ("beamforming.precode", "phy.sinr", "engine.cca_lbt", "channel.table_build", "geometry.generate_drop"):
        assert layers.get(name, {}).get("calls", 0) > 0, name
    assert layers["geometry.generate_drop"]["calls"] == layers["channel.table_build"]["calls"] == 3
