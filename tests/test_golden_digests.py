"""Byte identity: each benchmark workload, at seeds 1, 7 and 12345, emits the
files whose digest `golden_digests.json` records.

The workloads, their config seeds and the digest are the benchmark's own: the
test runs `simbench/job.py`'s `main` in-process and reads the digest from the
JSON line it prints, so nothing here redefines them. Scenarios B and C run
LAPACK, whose last bits depend on the numpy and BLAS build, so the digests
are checked only on the build that the file records; another build fails
with both named. A change that alters outputs on purpose records the new
digests in the file, with the acceptance numbers before and after.
"""

import importlib
import json
import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
CASES = [(workload, int(seed)) for workload, by_seed in GOLDEN["digests"].items() for seed in by_seed]


def _build(env):
    return f"numpy {env['numpy']}, BLAS {env['blas']}"


@pytest.mark.parametrize("workload,seed", CASES)
def test_workload_outputs_match_the_golden_digest(workload, seed, tmp_path, monkeypatch, capsys):
    # job.main puts ./src on sys.path itself; the patch restores sys.path afterwards
    monkeypatch.setattr(sys, "path", [str(ROOT / "simbench"), *sys.path])
    job, run = importlib.import_module("job"), importlib.import_module("run")
    config_seed = random.Random(f"{workload}/{seed}").randrange(1, 2**31)  # as run.run_workload derives it
    spec = dict(run.WORKLOADS[workload], root=str(ROOT), seed=config_seed, out_dir=str(tmp_path / "out"), spans=None)
    job.main(spec)
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    recorded, running = _build(GOLDEN["build"]), _build(report["env"])
    assert running == recorded, f"digests recorded on {recorded}; this run uses {running}"
    assert report["bad_drops"] == [] and report["emitted_ok"]
    assert report["digest"] == GOLDEN["digests"][workload][str(seed)]
