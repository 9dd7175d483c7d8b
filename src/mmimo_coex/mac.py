"""Channel access and scheduling: traffic draws, LBT/eLBT contention with
energy and preamble detection, the interference-vulnerability metric, and the
round-robin schedulers of the three deployments."""

import math
from dataclasses import dataclass, field

MODE_LBT = "LBT"
MODE_ELBT = "eLBT"

DEFER_NONE = "none"
DEFER_ENERGY = "energy"
DEFER_PREAMBLE = "preamble"


@dataclass
class TrafficState:
    """Round snapshot of which STAs hold traffic and in which direction."""

    active_dl: frozenset
    active_ul: frozenset


@dataclass
class AccessAttempt:
    node_id: int
    mode: str
    backoff_slot: int
    granted: bool
    defer_cause: str = DEFER_NONE


@dataclass
class SchedulerState:
    """Per-drop scheduler bookkeeping (served sets, partitions, RR cursors)."""

    served: dict  # ap_id -> tuple of sta_ids
    k_max: dict  # ap_id -> max simultaneous DL streams
    elbt_set: frozenset = frozenset()  # interference-resilient users of the nulling AP
    lbt_set: frozenset = frozenset()  # vulnerable users, served after plain LBT
    dl_cursor: dict = field(default_factory=dict)
    ul_cursor: dict = field(default_factory=dict)


def draw_traffic(stas, p_tr, rng, ul_fraction=0.2):
    """Independent Bernoulli(p_tr) traffic per STA; active STAs intend UL with
    probability ul_fraction for this round, DL otherwise."""
    if not 0.0 <= p_tr <= 1.0:
        raise ValueError("p_tr must lie in [0, 1]")
    sta_ids = [sta.id for sta in stas]
    active = rng.random(len(sta_ids)) < p_tr
    uplink = rng.random(len(sta_ids)) < ul_fraction
    dl = frozenset(s for s, a, u in zip(sta_ids, active, uplink) if a and not u)
    ul = frozenset(s for s, a, u in zip(sta_ids, active, uplink) if a and u)
    return TrafficState(active_dl=dl, active_ul=ul)


def energy_detect(total_rx_power, gamma_lbt):
    """Clear-channel verdict of energy detection: idle iff power < threshold."""
    return total_rx_power < gamma_lbt


def preamble_detect(per_source_rx, gamma_preamble, min_sinr):
    """True iff any single source is decodable as a preamble (power and SINR
    thresholds both met, linear scale), which forces the sensing node to defer."""
    return any(p >= gamma_preamble and s >= min_sinr for p, s in per_source_rx)


def vulnerability_metric(sta_id, serving_ap_id, ap_ids, slow_gains, powers, noise_power):
    """Slow-fading SIR-like score of a STA against the non-serving APs.

    beta = P_a g_a / (sum_{j != a} P_j g_j + noise), with all APs at maximum
    power and gains taken before fast fading. High beta = far from other
    cells, hence resilient to spectrum reuse.
    """
    num = powers[serving_ap_id] * slow_gains[(sta_id, serving_ap_id)]
    den = noise_power
    for ap_id in ap_ids:
        if ap_id != serving_ap_id:
            den += powers[ap_id] * slow_gains[(sta_id, ap_id)]
    return num / den


def partition_by_vulnerability(betas, elbt_fraction=0.4):
    """Split a cell's users: the floor(fraction * n) highest-beta users are
    eligible during spectrum-reuse (eLBT) rounds, the rest after plain LBT."""
    ranked = sorted(betas, key=lambda s: (-betas[s], s))
    n_elbt = math.floor(elbt_fraction * len(ranked))
    return frozenset(ranked[:n_elbt]), frozenset(ranked[n_elbt:])


def phase_pattern(round_index, elbt_fraction=0.4, period=5):
    """Deterministic repeating access pattern for the nulling AP.

    The first round(elbt_fraction * period) rounds of each period use eLBT,
    the remainder plain LBT; defaults give the 2-of-5 (40/60) split.
    """
    n_elbt = int(round(elbt_fraction * period))
    return MODE_ELBT if (round_index % period) < n_elbt else MODE_LBT


def _rotate(candidates, cursor, k):
    if not candidates:
        return []
    start = cursor % len(candidates)
    wrapped = candidates[start:] + candidates[:start]
    return wrapped[:k]


def dl_candidates(ap_id, traffic, state, phase=None):
    """The set of the cell's STAs holding DL traffic; when `phase` is given,
    only those in the matching eLBT/LBT partition subset."""
    cands = set(state.served[ap_id]) & traffic.active_dl
    if phase == MODE_ELBT:
        cands &= state.elbt_set
    elif phase == MODE_LBT:
        cands &= state.lbt_set
    return cands


def schedule(ap_id, traffic, state, phase=None):
    """Pick this round's DL users for a granted AP (round robin).

    Single-antenna APs serve one user; the spatial-multiplexing AP serves up
    to its stream budget. `phase` filters candidates as in `dl_candidates`.
    """
    cands = sorted(dl_candidates(ap_id, traffic, state, phase))
    k = min(state.k_max[ap_id], len(cands))
    picked = _rotate(cands, state.dl_cursor.get(ap_id, 0), k)
    state.dl_cursor[ap_id] = state.dl_cursor.get(ap_id, 0) + k
    return picked


def select_ul_sta(ap_id, traffic, state):
    """Round-robin choice of the single STA contending for UL in this cell."""
    cands = sorted(set(state.served[ap_id]) & traffic.active_ul)
    if not cands:
        return None
    picked = _rotate(cands, state.ul_cursor.get(ap_id, 0), 1)[0]
    state.ul_cursor[ap_id] = state.ul_cursor.get(ap_id, 0) + 1
    return picked


def contend(contenders, medium, rng, cw=16):
    """Snapshot contention round: backoff-ordered sequential admission.

    Every contender draws a backoff uniform in [0, cw); contenders are then
    processed in ascending (backoff, node id) order and each one senses only
    the transmitters admitted before it. LBT nodes compare the full received
    power against the energy threshold; the eLBT node compares the power left
    after filtering out its dominant interference directions. A decodable
    preamble additionally forces deferral, but only for transmitters that
    started within the preamble duration before the contender's own CCA
    instant (a PLCP preamble spans only a few backoff slots; an older frame
    is mid-burst and can merely be energy-detected). Granted nodes are
    activated on the medium and transmit for the whole round.
    """
    backoffs = rng.integers(0, cw, len(contenders))
    order = sorted(
        ((int(b), node_id, mode) for (node_id, mode), b in zip(contenders, backoffs)),
        key=lambda t: (t[0], t[1]),
    )
    attempts = []
    for backoff, node_id, mode in order:
        if medium.busy_receiving(node_id):
            continue  # half duplex: the node is the destination of an earlier grant
        if mode == MODE_ELBT:
            total, per_source = medium.residual_rx(node_id, backoff)
        else:
            total, per_source = medium.sensed_rx(node_id, backoff)
        if not energy_detect(total, medium.gamma_lbt):
            cause, granted = DEFER_ENERGY, False
        elif preamble_detect(per_source, medium.gamma_preamble, medium.preamble_min_sinr):
            cause, granted = DEFER_PREAMBLE, False
        else:
            cause = DEFER_NONE
            granted = medium.activate(node_id, backoff)
        attempts.append(AccessAttempt(node_id=node_id, mode=mode, backoff_slot=backoff, granted=granted, defer_cause=cause))
    return attempts
