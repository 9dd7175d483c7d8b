"""Floor layout, node placement, and STA-to-AP association."""

import math
from dataclasses import dataclass

import numpy as np

ROLE_AP = "AP"
ROLE_STA = "STA"


@dataclass(frozen=True)
class FloorPlan:
    width_m: float = 120.0
    depth_m: float = 50.0
    ap_height_m: float = 3.0
    sta_height_m: float = 1.5

    def __post_init__(self):
        for name in ("width_m", "depth_m", "ap_height_m", "sta_height_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"FloorPlan.{name} must be strictly positive")


@dataclass(frozen=True)
class NodeDescriptor:
    id: int
    role: str
    position: tuple  # (x, y, z) in meters
    num_antennas: int
    max_power_dbm: float

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")


@dataclass(frozen=True)
class AssociationMap:
    serving: dict  # sta_id -> ap_id
    served: dict  # ap_id -> tuple of sta_ids (sorted)


def generate_drop(config, seed):
    """One deployment realization: 3 corridor APs plus uniformly dropped STAs.

    APs sit at the midpoints of the corridor thirds (x = W/6, W/2, 5W/6) on the
    centerline; STAs are i.i.d. uniform over the floor rectangle. Deterministic
    given `seed` (an int, SeedSequence, or Generator).
    """
    if config.n_stas <= 0:
        raise ValueError("n_stas must be strictly positive")
    plan = FloorPlan(
        width_m=config.floor_width_m,
        depth_m=config.floor_depth_m,
        ap_height_m=config.ap_height_m,
        sta_height_m=config.sta_height_m,
    )
    rng = np.random.default_rng(seed)

    antennas = config.ap_antennas
    nodes = []
    y_mid = plan.depth_m / 2.0
    for a in range(3):
        x = plan.width_m * (2 * a + 1) / 6.0
        nodes.append(
            NodeDescriptor(
                id=a,
                role=ROLE_AP,
                position=(x, y_mid, plan.ap_height_m),
                num_antennas=int(antennas[a]),
                max_power_dbm=config.ap_max_power_dbm,
            )
        )

    xs = rng.uniform(0.0, plan.width_m, config.n_stas)
    ys = rng.uniform(0.0, plan.depth_m, config.n_stas)
    for s in range(config.n_stas):
        nodes.append(
            NodeDescriptor(
                id=3 + s,
                role=ROLE_STA,
                position=(float(xs[s]), float(ys[s]), plan.sta_height_m),
                num_antennas=1,
                max_power_dbm=config.sta_max_power_dbm,
            )
        )
    return plan, nodes


def associate(stas, aps, slow_gains):
    """Map every STA to the AP with the largest average RSS.

    `slow_gains` holds the slow channel gain in dB keyed by (sta_id, ap_id);
    RSS = AP max power + slow gain. Exact RSS ties go to the lowest AP id.
    """
    serving = {}
    served = {ap.id: [] for ap in aps}
    aps_sorted = sorted(aps, key=lambda ap: ap.id)
    for sta in stas:
        best_ap = None
        best_rss = -math.inf
        for ap in aps_sorted:
            rss = ap.max_power_dbm + slow_gains[(sta.id, ap.id)]
            if rss > best_rss:
                best_rss = rss
                best_ap = ap.id
        serving[sta.id] = best_ap
        served[best_ap].append(sta.id)
    return AssociationMap(
        serving=serving,
        served={ap_id: tuple(sorted(ids)) for ap_id, ids in served.items()},
    )
