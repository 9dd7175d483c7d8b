"""One benchmark job, run in a fresh interpreter by run.py.

Sets up the simulator from the checkout's own sources, runs one configuration
through the public API (engine.run_simulation, then results.emit_results),
checks every drop and the emitted files, and prints one JSON line with the
timings, per-drop host times, the output digest, simulated statistics and,
when traced, per-layer totals. Usage:

    python3 simbench/job.py '<job spec as JSON>'

The spec holds root, scenario, p_tr, n_drops, n_rounds, out_format, seed,
out_dir and spans (a file for the trace, or null for an untraced job).
"""

import json
import math
import os
import sys
import time


def main(spec):
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy as np

    import mmimo_coex
    from mmimo_coex import ScenarioConfig, engine, results

    if os.path.dirname(os.path.realpath(mmimo_coex.__file__)) != os.path.realpath(os.path.join(src, "mmimo_coex")):
        raise SystemExit(f"mmimo_coex imported from {mmimo_coex.__file__}, not from {src}")
    cfg = ScenarioConfig(
        scenario=spec["scenario"],
        p_tr=spec["p_tr"],
        n_drops=spec["n_drops"],
        n_rounds=spec["n_rounds"],
        seed=spec["seed"],
        out_dir=spec["out_dir"],
        out_format=spec["out_format"],
    ).validate()
    ready = time.monotonic()

    import hashlib
    import resource

    from tracer import Tracer, trace_simulator

    original_run_drop = engine.run_drop
    tracer = None
    if spec["spans"]:
        tracer = Tracer()
        trace_simulator(tracer, engine, results)

    drop_s = []
    report = {"ready": ready, "drop_s": drop_s}
    inner_run_drop = engine.run_drop

    def timed_run_drop(config, seed):
        start = time.perf_counter()
        try:
            return inner_run_drop(config, seed)
        except Exception:
            report["bad_drops"] = [len(drop_s)]
            raise
        finally:
            drop_s.append(time.perf_counter() - start)

    engine.run_drop = timed_run_drop
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        res = engine.run_simulation(cfg)
        t1 = time.perf_counter()
        paths = results.emit_results(res)
        t2 = time.perf_counter()
    except Exception:
        print(json.dumps(report))  # how many drops ran, and which one raised
        raise
    finally:
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        engine.run_drop = inner_run_drop
        restored = tracer.restore() if tracer else True
        report["restored"] = restored and engine.run_drop is original_run_drop

    digest = hashlib.sha256()
    for name in sorted(os.listdir(cfg.out_dir)):
        if name != "manifest.json":  # its version string changes with every commit
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    emitted_sum, emitted_sinr = _emitted_samples(cfg)

    report.update(
        simulate_s=t1 - t0,
        emit_s=t2 - t1,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0,
        bytes_written=sum(os.path.getsize(p) for p in paths),
        digest=digest.hexdigest()[:16],
        bad_drops=[i for i, drop in enumerate(res.drops) if not _drop_ok(drop)],
        emitted_ok=emitted_sum == res.sum_throughput_samples() and emitted_sinr == len(res.sinr_samples_db()),
        sim={
            "central_ap_access": res.ap_access_success(engine.CENTRAL_AP),
            "median_sum_throughput_mbps": res.median_sum_throughput() / 1e6,
            "sinr_p5_db": res.sinr_percentile_db(5),
        },
        env={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_name(np),
        },
    )
    if tracer:
        layers = tracer.layer_totals()
        report["layers"] = {name: {"calls": t["calls"], "self_ms": t["self_ms"]} for name, t in layers.items()}
        precode_errors = layers.get("beamforming.precode", {}).get("errors", {})
        report["counts"] = dict(tracer.counts, **{"beamforming.singular": precode_errors.get("SingularChannelError", 0)})
        report["not_traced"] = tracer.missing
        tracer.write(spec["spans"])
    print(json.dumps(report))


def _drop_ok(drop):
    """Finite SINR and throughput, throughput >= 0, 0 <= grants <= attempts per AP."""
    tputs = [drop.sum_throughput_bps, *drop.user_throughput_bps.values()]
    return (
        all(math.isfinite(v) for v in drop.sinr_db)
        and all(math.isfinite(t) and t >= 0.0 for t in tputs)
        and all(0 <= g <= a for g, a in zip(drop.ap_grants, drop.ap_attempts))
    )


def _emitted_samples(cfg):
    """Per-drop sum throughputs and the SINR sample count, read back from disk."""
    if cfg.out_format == "csv":
        import csv

        with open(os.path.join(cfg.out_dir, "samples.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    else:
        with open(os.path.join(cfg.out_dir, "results.json")) as fh:
            rows = json.load(fh)["samples"]
    sums = [float(row[4]) for row in rows if row[3] == "dl_sum_throughput_bps"]
    return sums, sum(1 for row in rows if row[3] == "dl_user_sinr_db")


def _blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
