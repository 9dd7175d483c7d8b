"""In-memory span tracer that wraps the simulator's public functions from outside.

Each wrapped function is replaced, on the object its caller looks it up on,
by a wrapper that records a span: name, start and end (perf_counter_ns), the
index of the enclosing span and the index of the drop it belongs to. Spans
stay in memory until `write` dumps them once; `restore` puts every original
attribute back. The wrappers only read the clock, so the simulator's random
streams and outputs are untouched.
"""

import functools
import json
import time
from collections import Counter

DROP_SPAN = "engine.run_drop"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, drop index, error]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._drop = -1
        self._patches = []

    def wrap(self, owner, attr, name, on_return=None):
        """Replace owner.attr by a span-recording wrapper; `on_return` sees each result."""
        original = _lookup(owner, attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)  # one layer calling itself stays one span
            if name == DROP_SPAN:
                self._drop += 1
            span = [name, clock(), 0, stack[-1] if stack else -1, self._drop, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every patched attribute; True iff each one reads as before."""
        ok = True
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            ok = ok and _lookup(owner, attr) is original
        return ok

    def layer_totals(self):
        """{span name: {"calls", "self_ms", "errors"}}; self time excludes child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for (name, start, end, _, _, error), inner in zip(self.spans, child_ns):
            t = totals.setdefault(name, {"calls": 0, "self_ms": 0.0, "errors": Counter()})
            t["calls"] += 1
            t["self_ms"] += (end - start - inner) / 1e6
            if error:
                t["errors"][error] += 1
        return totals

    def write(self, path):
        """Dump every span as one JSON line; times are perf_counter_ns."""
        keys = ("name", "start_ns", "end_ns", "parent", "drop", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _lookup(owner, attr):
    """The attribute as stored on a class (not a bound or inherited one), or on a module."""
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def trace_simulator(tracer, engine, results):
    """Wrap each layer boundary where engine (or the benchmark) looks it up."""
    medium, table = engine.RoundMedium, engine.ChannelTable
    for owner, attr, name in (
        (engine, "run_simulation", "engine.simulate"),
        (results, "emit_results", "results.emit"),
        (engine, "run_drop", DROP_SPAN),
        (engine, "init_drop", "engine.init_drop"),
        (engine, "generate_drop", "geometry.generate_drop"),
        (table, "__init__", "channel.table_build"),
        (table, "resample", "channel.resample"),
        (engine.mac, "contend", "mac.contend"),
        (medium, "sensed_rx", "engine.cca_lbt"),
        (medium, "residual_rx", "engine.cca_elbt"),
        (engine, "received_covariance", "channel.covariance"),
        (engine.beamforming, "dominant_subspace", "beamforming.subspace"),
        (medium, "activate", "engine.activate"),
        (engine.beamforming, "matched_filter", "beamforming.precode"),
        (engine.beamforming, "zf_precoder", "beamforming.precode"),
        (engine.beamforming, "zf_with_nulls", "beamforming.precode"),
        (engine.phy, "compute_sinr", "phy.sinr"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(engine, "run_round", "engine.run_round", on_return=lambda out: count_round(tracer.counts, out, engine.mac))


def count_round(counts, outcome, mac):
    """Access and outage counters from the RoundOutcome that run_round returns."""
    for attempt in outcome.attempts:
        counts["mac.attempts"] += 1
        counts["mac.grants"] += int(attempt.granted)
        if attempt.defer_cause == mac.DEFER_ENERGY:
            counts["mac.defer_energy"] += 1
        elif attempt.defer_cause == mac.DEFER_PREAMBLE:
            counts["mac.defer_preamble"] += 1
        elif not attempt.granted:
            counts["mac.voided_grants"] += 1  # channel clear, but no precoder could be built
    rates = outcome.user_rate_bps.values()
    counts["phy.scheduled_users"] += len(rates)
    counts["phy.outage_users"] += sum(1 for rate in rates if rate == 0.0)
