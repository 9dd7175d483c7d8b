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
    """Round snapshot of which STAs hold traffic: per AP id, the ascending
    lists of its cell's STAs holding DL and UL traffic."""

    dl: dict  # ap_id -> list of sta_ids
    ul: dict  # ap_id -> list of sta_ids


@dataclass
class AccessAttempt:
    node_id: int
    mode: str
    backoff_slot: int
    granted: bool
    defer_cause: str = DEFER_NONE


@dataclass
class SchedulerState:
    """Per-drop scheduler bookkeeping (served sets, the user partition, RR
    cursors). `cell_of` maps each served STA to its AP, in ascending STA id."""

    served: dict  # ap_id -> tuple of sta_ids
    k_max: dict  # ap_id -> max simultaneous DL streams
    partition: dict = field(default_factory=dict)  # ap_id -> {phase: frozenset of the sta_ids it serves then}
    dl_cursor: dict = field(default_factory=dict)
    ul_cursor: dict = field(default_factory=dict)
    cell_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cell_of = dict(sorted((s, a) for a, cell in self.served.items() for s in cell))


def draw_traffic(state, p_tr, rng, ul_fraction):
    """Independent Bernoulli(p_tr) traffic per served STA, in ascending id;
    active STAs intend UL with probability ul_fraction for this round, DL
    otherwise."""
    if not 0.0 <= p_tr <= 1.0:
        raise ValueError("p_tr must lie in [0, 1]")
    u_active, u_uplink = rng.random((2, len(state.cell_of))).tolist()  # the values of two calls of n
    dl = {a: [] for a in state.served}
    ul = {a: [] for a in state.served}
    for (sta, a), x, y in zip(state.cell_of.items(), u_active, u_uplink):
        if x < p_tr:
            (ul if y < ul_fraction else dl)[a].append(sta)
    return TrafficState(dl=dl, ul=ul)


def energy_detect(total_rx_power, gamma_lbt):
    """Clear-channel verdict of energy detection: idle iff power < threshold."""
    return total_rx_power < gamma_lbt


def preamble_detect(per_source_rx, gamma_preamble, min_sinr):
    """True iff any single source is decodable as a preamble (power and SINR
    thresholds both met, linear scale), which forces the sensing node to defer."""
    return any(p >= gamma_preamble and s >= min_sinr for p, s in per_source_rx)


def vulnerability(rx_mw, serving_ap, noise_power):
    """Slow-fading SIR-like score of each STA (row of `rx_mw`, the P_j g_j of
    every AP j at maximum power, before fast fading) against the non-serving
    APs: beta = P_a g_a / (noise + sum_{j != a} P_j g_j), summed left to right.
    High beta = far from other cells, hence resilient to spectrum reuse.
    """
    others = (rx_mw[:, j] for j in range(rx_mw.shape[1]) if j != serving_ap)
    return rx_mw[:, serving_ap] / sum(others, noise_power)


def partition_by_vulnerability(betas, elbt_fraction):
    """Split a cell's users: the floor(fraction * n) highest-beta users are
    eligible during spectrum-reuse (eLBT) rounds, the rest after plain LBT."""
    ranked = sorted(betas, key=lambda s: (-betas[s], s))
    n_elbt = math.floor(elbt_fraction * len(ranked))
    return frozenset(ranked[:n_elbt]), frozenset(ranked[n_elbt:])


def phase_pattern(round_index, elbt_fraction, period):
    """Deterministic repeating access pattern for the nulling AP.

    The first round(elbt_fraction * period) rounds of each period use eLBT,
    the remainder plain LBT.
    """
    n_elbt = int(round(elbt_fraction * period))
    return MODE_ELBT if (round_index % period) < n_elbt else MODE_LBT


def _round_robin(cursors, ap_id, candidates, k):
    """The k (at most all) candidates from this AP's cursor on, wrapping
    around; the cursor moves on by k."""
    start = cursors.get(ap_id, 0)
    cursors[ap_id] = start + k
    return [candidates[(start + i) % len(candidates)] for i in range(k)]


def dl_candidates(ap_id, traffic, state, phase):
    """The cell's STAs holding DL traffic, in ascending id order: the round's
    list itself, or for an AP with a user partition only those that `phase`
    serves."""
    cands = traffic.dl[ap_id]
    split = state.partition.get(ap_id)
    return cands if split is None else [s for s in cands if s in split[phase]]


def schedule(ap_id, candidates, state):
    """Pick this round's DL users for a granted AP from its `dl_candidates`
    (round robin). Single-antenna APs serve one user; the
    spatial-multiplexing AP serves up to its stream budget."""
    return _round_robin(state.dl_cursor, ap_id, candidates, min(state.k_max[ap_id], len(candidates)))


def select_ul_sta(ap_id, traffic, state):
    """Round-robin choice of the single STA contending for UL in this cell."""
    cands = traffic.ul[ap_id]
    return _round_robin(state.ul_cursor, ap_id, cands, 1)[0] if cands else None


def contend(contenders, medium, rng, cw):
    """Snapshot contention round: backoff-ordered sequential admission.

    Every contender draws a backoff uniform in [0, cw), as floor(u * cw) of
    one uniform u each (exact for a power-of-two cw, and within 2^-53 per
    value otherwise; u < 1 keeps it below cw); contenders are then
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
    backoffs = (rng.random(len(contenders)) * cw).astype(int).tolist()
    # node ids are unique, so the tuples sort by (backoff, node id) alone
    order = sorted((b, node_id, mode) for (node_id, mode), b in zip(contenders, backoffs))
    attempts = []
    for backoff, node_id, mode in order:
        if medium.busy_receiving(node_id):
            continue  # half duplex: the node is the destination of an earlier grant
        if mode == MODE_ELBT:
            total, per_source = medium.residual_rx(node_id, backoff)
        else:
            total, per_source = medium.sensed_rx(node_id, backoff)
        if not energy_detect(total, medium.link.gamma_lbt):
            cause, granted = DEFER_ENERGY, False
        elif preamble_detect(per_source, medium.link.gamma_preamble, medium.link.preamble_min_sinr):
            cause, granted = DEFER_PREAMBLE, False
        else:
            cause = DEFER_NONE
            granted = medium.activate(node_id, backoff)
        attempts.append(AccessAttempt(node_id=node_id, mode=mode, backoff_slot=backoff, granted=granted, defer_cause=cause))
    return attempts
