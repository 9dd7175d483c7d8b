"""Result containers, empirical CDFs, and CSV/JSON emission."""

import csv
import json
import os
import subprocess
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .geometry import ap_corridor_x

SCHEMA_VERSION = 1
# Rows the JSON writer encodes per call: enough to amortise the call, few
# enough that the text of one block stays small beside the results.
_JSON_BLOCK_ROWS = 1024


@dataclass
class DropResult:
    ap_attempts: tuple  # per AP, rounds with DL traffic queued
    ap_grants: tuple  # per AP, rounds with channel access gained
    sinr_db: np.ndarray  # pooled per-user per-round DL SINR samples
    user_throughput_bps: dict  # sta_id -> average DL throughput
    sum_throughput_bps: float  # DL sum user throughput of this drop


@dataclass
class ResultSet:
    config: object
    drops: list

    def ap_access_success(self, ap_id):
        """Pooled grants/attempts for one AP over all drops."""
        attempts = sum(d.ap_attempts[ap_id] for d in self.drops)
        grants = sum(d.ap_grants[ap_id] for d in self.drops)
        return grants / attempts if attempts else float("nan")

    def ap_access_rate_samples(self, ap_id):
        """Per-drop access rates (drops without any attempt are skipped)."""
        return [
            d.ap_grants[ap_id] / d.ap_attempts[ap_id]
            for d in self.drops
            if d.ap_attempts[ap_id] > 0
        ]

    def sinr_samples_db(self):
        if not self.drops:
            return np.array([])
        return np.concatenate([d.sinr_db for d in self.drops])

    def sum_throughput_samples(self):
        return [d.sum_throughput_bps for d in self.drops]

    def median_sum_throughput(self):
        samples = self.sum_throughput_samples()
        return float(np.median(samples)) if samples else float("nan")

    def sinr_percentile_db(self, q):
        return _percentile(self.sinr_samples_db(), q)


def _percentile(samples, q):
    return float(np.percentile(samples, q)) if len(samples) else float("nan")


def aggregate_cdf(samples):
    """Empirical CDF as (value, cumulative probability) pairs, steps of 1/n."""
    values = sorted(float(v) for v in samples)
    n = len(values)
    return [(v, (i + 1) / n) for i, v in enumerate(values)]


def _version_string():
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0:
            return f"mmimo-coex-0.1.0+g{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        pass
    return "mmimo-coex-0.1.0"


def _summary(results, sinr_db):
    cfg = results.config
    return {
        "ap_access_success": [results.ap_access_success(a) for a in range(3)],
        "median_dl_sum_throughput_bps": results.median_sum_throughput(),
        "dl_sinr_p5_db": _percentile(sinr_db, 5),
        "dl_sinr_p50_db": _percentile(sinr_db, 50),
        "n_sinr_samples": len(sinr_db),
        "scenario": cfg.scenario,
        "p_tr": cfg.p_tr,
    }


def _sample_rows(results):
    cfg = results.config
    for d_idx, d in enumerate(results.drops):
        for ap in range(3):
            if d.ap_attempts[ap] > 0:
                yield (cfg.scenario, cfg.p_tr, d_idx, f"access_success_ap{ap}", d.ap_grants[ap] / d.ap_attempts[ap])
        for v in d.sinr_db.tolist():
            yield (cfg.scenario, cfg.p_tr, d_idx, "dl_user_sinr_db", v)
        for sta_id in sorted(d.user_throughput_bps):
            yield (cfg.scenario, cfg.p_tr, d_idx, "dl_user_throughput_bps", d.user_throughput_bps[sta_id])
        yield (cfg.scenario, cfg.p_tr, d_idx, "dl_sum_throughput_bps", d.sum_throughput_bps)


def _dump_json(fh, value, depth=0):
    """Write `value` as json.dump(value, fh, indent=1) does, for a dict whose
    values are scalars, such dicts, or iterables of non-empty rows of scalars.

    Rows go through json's C encoder (it runs only when indent is None) in
    blocks of _JSON_BLOCK_ROWS. Its item separator carries the newline and
    indentation of a row's items; a raw newline never occurs inside an
    encoded string, so the text "],\n<pad>[" only ever joins two rows, and it
    is re-broken into the indented row brackets.
    """
    if isinstance(value, dict):
        pad = "\n" + " " * (depth + 1)
        for i, (key, item) in enumerate(value.items()):
            fh.write(("{" if i == 0 else ",") + pad + json.dumps(key) + ": ")
            _dump_json(fh, item, depth + 1)
        fh.write("\n" + " " * depth + "}" if value else "{}")
        return
    if isinstance(value, (str, int, float)) or value is None:
        fh.write(json.dumps(value))
        return
    row_pad, item_pad = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    encode = json.JSONEncoder(separators=("," + item_pad, ": ")).encode
    joint, broken = "]," + item_pad + "[", row_pad + "]," + row_pad + "[" + item_pad
    rows, opener = iter(value), "["
    for block in iter(lambda: list(islice(rows, _JSON_BLOCK_ROWS)), []):
        fh.write(opener + row_pad + "[" + item_pad + encode(block)[2:-2].replace(joint, broken) + row_pad + "]")
        opener = ","
    fh.write("[]" if opener == "[" else "\n" + " " * depth + "]")


def emit_results(results, out_dir=None, out_format=None):
    """Write raw samples, per-metric CDF tables, and the run manifest.

    CSV layout: samples.csv has one row per sample (scenario, p_tr, drop,
    metric, value); the CDF files carry (value, prob) pairs, with the access
    rate CDF additionally keyed by AP index and corridor position.
    Returns the list of written paths.
    """
    cfg = results.config
    out_dir = cfg.out_dir if out_dir is None else out_dir
    out_format = cfg.out_format if out_format is None else out_format
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir!r}: {exc}") from exc

    sinr_db = results.sinr_samples_db()
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "version": _version_string(),
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "summary": _summary(results, sinr_db),
    }
    access_cdfs = {ap: aggregate_cdf(results.ap_access_rate_samples(ap)) for ap in range(3)}
    sinr_cdf = aggregate_cdf(sinr_db)
    tput_cdf = aggregate_cdf(results.sum_throughput_samples())

    paths = []

    def _write(name, writer):
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", newline="") as fh:
                writer(fh)
        except OSError as exc:
            raise OSError(f"cannot write results file {path!r}: {exc}") from exc
        paths.append(path)

    if out_format == "csv":
        def _samples(fh):
            w = csv.writer(fh)
            w.writerow(["scenario", "p_tr", "drop", "metric", "value"])
            w.writerows(_sample_rows(results))

        def _access(fh):
            w = csv.writer(fh)
            w.writerow(["ap_index", "ap_x_m", "value", "prob"])
            for ap, x in enumerate(ap_corridor_x(cfg.floor_width_m)):
                for value, prob in access_cdfs[ap]:
                    w.writerow([ap, x, value, prob])

        def _sinr(fh):
            w = csv.writer(fh)
            w.writerow(["value_db", "prob"])
            w.writerows(sinr_cdf)

        def _tput(fh):
            w = csv.writer(fh)
            w.writerow(["value_bps", "prob"])
            w.writerows(tput_cdf)

        _write("samples.csv", _samples)
        _write("access_rate.csv", _access)
        _write("sinr_cdf.csv", _sinr)
        _write("throughput_cdf.csv", _tput)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "samples": _sample_rows(results),
            "access_rate_cdf": {str(ap): access_cdfs[ap] for ap in range(3)},
            "sinr_cdf": sinr_cdf,
            "throughput_cdf": tput_cdf,
        }
        _write("results.json", lambda fh: _dump_json(fh, payload))

    _write("manifest.json", lambda fh: json.dump(manifest, fh, indent=1, sort_keys=True))
    return paths
