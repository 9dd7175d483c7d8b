"""Result containers, empirical CDFs, and CSV/JSON emission."""

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import __version__
from .geometry import ap_corridor_x

SCHEMA_VERSION = 1
# Rows the JSON writer encodes per call: enough to amortise the call, few
# enough that the text of one block stays small beside the results.
_JSON_BLOCK_ROWS = 1024


@dataclass
class DropResult:
    # per AP, CCA attempts; an AP with DL traffic makes none while withdrawn for
    # half duplex, nor (nulling AP) when the round's partition leaves it no candidate
    ap_attempts: tuple
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
        """np.median of the drops' sum throughputs (NaN if one is), without
        the numpy.ma import that np.median makes on first use."""
        samples = self.sum_throughput_samples()
        return statistics.median(samples) if samples and not any(map(math.isnan, samples)) else float("nan")

    def sinr_percentile_db(self, q):
        return _percentile(self.sinr_samples_db(), q)


def _percentile(samples, q):
    """np.percentile(samples, q) bit for bit, by its default linear rule,
    without the numpy.ma import that np.percentile makes on first use. (Only
    the sign of a zero can differ, where -0.0 and 0.0 tie.)"""
    ordered = np.sort(samples)  # any NaN sorts last
    n = len(ordered)
    if not n or math.isnan(ordered[-1]):
        return float("nan")
    v = (n - 1) * (q / 100)
    i = math.floor(v)
    a, b = ordered[i].item(), ordered[min(i + 1, n - 1)].item()
    t = v - i
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def aggregate_cdf(samples):
    """Empirical CDF as (value, cumulative probability) pairs, steps of 1/n."""
    values = sorted(float(v) for v in samples)
    n = len(values)
    return [(v, (i + 1) / n) for i, v in enumerate(values)]


def _finite_or_none(value):
    """A statistic as strict JSON can hold it: None where it has no finite value."""
    return value if math.isfinite(value) else None


def summary(results):
    """The run's headline numbers: what manifest.json stores, `sim run` prints
    and each row of `sim sweep`'s sweep_summary.csv holds; a statistic with no
    samples is None (null in JSON, an empty CSV cell)."""
    cfg = results.config
    sinr_db = results.sinr_samples_db()
    return {
        "ap_access_success": [_finite_or_none(results.ap_access_success(a)) for a in range(3)],
        "median_dl_sum_throughput_bps": _finite_or_none(results.median_sum_throughput()),
        "dl_sinr_p5_db": _finite_or_none(_percentile(sinr_db, 5)),
        "dl_sinr_p50_db": _finite_or_none(_percentile(sinr_db, 50)),
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


def _write(path, write):
    """Open `path` for writing, hand the file to `write`, and return the path."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise OSError(f"cannot write results file {path!r}: {exc}") from exc
    return path


def write_csv(path, header, rows):
    """Write one CSV table, the header row first; returns the path."""

    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)

    return _write(path, write)


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

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "version": f"mmimo-coex-{__version__}",
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "summary": summary(results),
    }
    access_cdfs = [aggregate_cdf(results.ap_access_rate_samples(ap)) for ap in range(3)]
    sinr_cdf = aggregate_cdf(results.sinr_samples_db())
    tput_cdf = aggregate_cdf(results.sum_throughput_samples())

    if out_format == "csv":
        ap_x = ap_corridor_x(cfg.floor_width_m)
        access_rows = [(ap, ap_x[ap], value, prob) for ap, cdf in enumerate(access_cdfs) for value, prob in cdf]
        tables = (
            ("samples.csv", ["scenario", "p_tr", "drop", "metric", "value"], _sample_rows(results)),
            ("access_rate.csv", ["ap_index", "ap_x_m", "value", "prob"], access_rows),
            ("sinr_cdf.csv", ["value_db", "prob"], sinr_cdf),
            ("throughput_cdf.csv", ["value_bps", "prob"], tput_cdf),
        )
        paths = [write_csv(os.path.join(out_dir, name), header, rows) for name, header, rows in tables]
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "samples": _sample_rows(results),
            "access_rate_cdf": {str(ap): cdf for ap, cdf in enumerate(access_cdfs)},
            "sinr_cdf": sinr_cdf,
            "throughput_cdf": tput_cdf,
        }
        paths = [_write(os.path.join(out_dir, "results.json"), lambda fh: _dump_json(fh, payload))]

    manifest_path = os.path.join(out_dir, "manifest.json")
    paths.append(_write(manifest_path, lambda fh: json.dump(manifest, fh, indent=1, sort_keys=True)))
    return paths
