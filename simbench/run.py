"""Host-time benchmark of the mmimo-coex simulator.

Usage, from the repository root:

    python3 simbench/run.py --workload saturated-C --seed 1 --seconds 40 --trace 0
    python3 simbench/run.py --workload all --trace 1 --save simbench/baseline/<commit>.jsonl

A job is one fresh child process (simbench/job.py): it imports numpy and
mmimo_coex from ./src, runs engine.run_simulation and results.emit_results on
the workload's configuration, and checks every drop and the emitted files. A
run repeats the job, one child at a time, until --seconds are spent (at least
MIN_JOBS jobs) and reports medians. Every job of a run gets the same inputs,
derived from --seed, so every job must emit the same output digest.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced jobs on the same inputs and reports the per-layer metrics; a traced
job must emit the untraced job's digest. The last line on stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count drops; the lines above it are the readable report. This script
sets no BLAS thread variable, so thread settings made by the program itself
show in cpu_s.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
WORK = os.path.join(HERE, "work")

# Drop counts give each job about a second of simulation, so a run holds some
# twenty jobs: their medians damp host noise that lasts seconds, and the pooled
# drop times put hundreds of samples beyond p90.
WORKLOADS = {
    # All three APs contend every round; the only workload that runs eLBT
    # covariance + eigh, ZF with nulls and 4-stream SINR, and where OpenBLAS
    # threads engage.
    "saturated-C": {"scenario": "C", "p_tr": 1.0, "n_drops": 25, "n_rounds": 50, "out_format": "csv"},
    # Few contenders and no eLBT or nulls: fading resample dominates. The
    # bypass case for covariance and BLAS work.
    "sparse-B": {"scenario": "B", "p_tr": 0.1, "n_drops": 40, "n_rounds": 50, "out_format": "csv"},
    # Two rounds per drop: per-drop set-up and JSON emission dominate, so work
    # moved from rounds into drop set-up, or per-drop dispatch cost, shows here.
    "short-drops-A": {"scenario": "A", "p_tr": 1.0, "n_drops": 500, "n_rounds": 2, "out_format": "json"},
}
MIN_JOBS = 3
JOB_TIMEOUT_S = 60

# Per-layer metrics read from the traced job's spans: span name -> fields.
LAYER_SPANS = {
    "channel.resample": ("calls", "self_ms"),
    "channel.covariance": ("calls", "self_ms"),
    "beamforming.subspace": ("calls", "self_ms"),
    "engine.cca_elbt": ("calls", "self_ms"),
    "beamforming.precode": ("calls", "self_ms"),
    "engine.activate": ("self_ms",),
    "engine.cca_lbt": ("calls", "self_ms"),
    "mac.contend": ("self_ms",),
    "phy.sinr": ("calls", "self_ms"),
    "engine.init_drop": ("self_ms",),
    "geometry.generate_drop": ("calls", "self_ms"),
    "channel.table_build": ("self_ms",),
    "results.emit": ("self_ms",),
    "engine.run_round": ("self_ms",),
}
LAYER_COUNTS = (
    "beamforming.singular",
    "mac.attempts",
    "mac.grants",
    "mac.defer_energy",
    "mac.defer_preamble",
    "mac.voided_grants",
)


def run_job(workload, config_seed, spans=None):
    """Run one child to completion; its report, with "error" if it failed."""
    out_dir = os.path.join(WORK, f"out-{os.getpid()}")
    spec = dict(WORKLOADS[workload], root=ROOT, seed=config_seed, out_dir=out_dir, spans=spans)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, JOB, json.dumps(spec)], capture_output=True, text=True, timeout=JOB_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except ValueError:
        report = {}
    if proc.returncode != 0 or "digest" not in report:
        stderr = proc.stderr.strip().splitlines()
        report["error"] = f"exit {proc.returncode}: {stderr[-1] if stderr else 'no output'}"
    else:
        report["setup_s"] = report["ready"] - start  # monotonic is one system-wide clock
    return report


def run_workload(workload, seed, seconds, trace):
    """Jobs on one input set until the time is spent: (untraced, traced) reports."""
    config_seed = random.Random(f"{workload}/{seed}").randrange(1, 2**31)
    os.makedirs(WORK, exist_ok=True)
    spans = os.path.join(WORK, f"spans-{workload}.jsonl") if trace else None
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_job(workload, config_seed))
        if trace:
            traced.append(run_job(workload, config_seed, spans))
        if any("error" in job for job in plain + traced):
            break
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_JOBS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    return config_seed, plain, traced


def check(plain, traced):
    """(attempted drops, failed drops, problems). A job whose digest differs
    from the first job's counts all its drops as failed."""
    jobs = plain + traced
    attempted = sum(len(job.get("drop_s", ())) for job in jobs)
    failed = sum(len(job.get("bad_drops", ())) for job in jobs)
    problems = []
    for i, job in enumerate(jobs):
        kind = "traced job" if i >= len(plain) else "job"
        if "error" in job:
            problems.append(f"{kind} failed: {job['error']}")
            continue
        if job["digest"] != jobs[0]["digest"]:
            failed += len(job["drop_s"]) - len(job["bad_drops"])
            problems.append(f"{kind} digest {job['digest']} differs from {jobs[0]['digest']}")
        if not job["emitted_ok"]:
            problems.append(f"{kind} emitted samples differ from the in-memory results")
        if not job["restored"]:
            problems.append(f"{kind} left a patched attribute in place")
    if failed:
        problems.append(f"{failed} drops failed: raised, broke an output invariant or changed the digest")
    return max(attempted, 1), failed, problems


def end_to_end(spec, plain):
    """{metric: (value, unit, samples)} from the untraced jobs."""
    n = len(plain)
    rounds = spec["n_drops"] * spec["n_rounds"]
    drop_ms = [1e3 * t for job in plain for t in job["drop_s"]]
    deciles = statistics.quantiles(drop_ms, n=10, method="inclusive")

    def med(key):
        return statistics.median(key(job) for job in plain)

    return {
        "setup_s": (med(lambda j: j["setup_s"]), "s", n),
        "run_wall_s": (med(lambda j: j["simulate_s"] + j["emit_s"]), "s", n),
        "rounds_per_s": (med(lambda j: rounds / j["simulate_s"]), "1/s", n),
        "drop_ms_p50": (deciles[4], "ms", len(drop_ms)),
        "drop_ms_p90": (deciles[8], "ms", len(drop_ms)),
        "cpu_s": (med(lambda j: j["cpu_s"]), "s", n),
        "peak_rss_mb": (med(lambda j: j["peak_rss_mb"]), "MB", n),
    }


def per_layer(plain, traced):
    """{metric: (value, unit, samples)} from the traced jobs, medians over jobs."""
    n = len(traced)

    def med(key):
        return statistics.median(key(job) for job in traced)

    def span(job, name, field):
        return job["layers"].get(name, {}).get(field, 0)

    def ratio(job, num, den):
        return job["counts"].get(num, 0) / job["counts"][den] if job["counts"].get(den) else 0.0

    metrics = {}
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            unit = "ms" if field == "self_ms" else "count"
            metrics[f"{name}.{field}"] = (med(lambda j: span(j, name, field)), unit, n)
    for name in LAYER_COUNTS:
        metrics[name] = (med(lambda j: j["counts"].get(name, 0)), "count", n)
    metrics["mac.grant_ratio"] = (med(lambda j: ratio(j, "mac.grants", "mac.attempts")), "ratio", n)
    metrics["phy.outage_ratio"] = (med(lambda j: ratio(j, "phy.outage_users", "phy.scheduled_users")), "ratio", n)
    metrics["results.bytes_written"] = (med(lambda j: j["bytes_written"]), "bytes", n)
    wall = [statistics.median(j["simulate_s"] + j["emit_s"] for j in jobs) for jobs in (traced, plain)]
    metrics["trace.overhead_ratio"] = (wall[0] / wall[1], "ratio", n)
    return metrics


def environment():
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": "unknown",
    }
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        if git.returncode == 0:
            env["commit"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def report(workload, seed, trace, config_seed, plain, traced, env):
    """Print the readable report and the JSON result line; return the run record."""
    spec = WORKLOADS[workload]
    attempted, failed, problems = check(plain, traced)
    correct = not problems
    print(
        f"simbench {workload}: seed {seed}, trace {trace}, {len(plain)} jobs"
        + (f" + {len(traced)} traced" if trace else "")
        + f"; scenario {spec['scenario']}, p_tr {spec['p_tr']}, {spec['n_drops']} drops x {spec['n_rounds']} rounds,"
        f" {spec['out_format']} output, config seed {config_seed}"
    )
    first = plain[0]
    env = dict(env, **first.get("env", {}))
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items()) or "none set"
    print(
        f"environment: python {env.get('python')}, numpy {env.get('numpy')}, blas {env.get('blas')},"
        f" nproc {env['nproc']} ({env['cpus_usable']} usable), *_NUM_THREADS {threads}, commit {env['commit']}"
    )
    for problem in problems:
        print(f"FAILED: {problem}")
    if traced and traced[0].get("not_traced"):
        print(f"not traced, so their per-layer metrics read 0: {', '.join(traced[0]['not_traced'])}")
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env, "correct": correct}
    metrics = {}
    if correct:
        e2e = end_to_end(spec, plain)
        layers = per_layer(plain, traced) if trace else {}
        for title, block in (("end-to-end (untraced jobs, median)", e2e), ("per-layer (traced jobs, median)", layers)):
            if block:
                print(title + ":")
            for name, (value, unit, n) in block.items():
                samples = f"{n} drops" if name.startswith("drop_ms") else f"{n} jobs"
                print(f"  {name:30s} {value:14.6g} {unit:6s} n={samples}")
        print(f"  {'drops_failed_ratio':30s} {failed / attempted:14.6g} {'ratio':6s} {failed} failed / {attempted} drops")
        if trace:
            wall_ms = 1e3 * statistics.median(j["simulate_s"] + j["emit_s"] for j in traced)
            shares = {k[: -len(".self_ms")]: v[0] / wall_ms for k, v in layers.items() if k.endswith(".self_ms")}
            print("  self-time share of traced run wall: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            record["layer_shares"] = shares
        sim = first["sim"]
        print(
            f"simulated (not gated): central-AP access {sim['central_ap_access']:.4f},"
            f" median sum throughput {sim['median_sum_throughput_mbps']:.3f} Mb/s,"
            f" p5 SINR {sim['sinr_p5_db']:.3f} dB, digest {first['digest']}"
        )
        record.update(sim=sim, digest=first["digest"], end_to_end=e2e, per_layer=layers)
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in (layers if trace else e2e).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append each run's record as a JSON line to this file")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running job is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "mmimo_coex", "engine.py")):
        print(f"simbench: no simulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        record = report(workload, args.seed, args.trace, *run_workload(workload, args.seed, args.seconds, args.trace), env)
        ok = ok and record["correct"]
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
