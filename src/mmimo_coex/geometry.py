"""Floor layout, node placement, and STA-to-AP association."""

from dataclasses import dataclass

import numpy as np

ROLE_AP = "AP"
ROLE_STA = "STA"


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


def ap_corridor_x(width_m):
    """x of the three corridor APs: the midpoints of the floor's thirds."""
    return [width_m * (2 * a + 1) / 6.0 for a in range(3)]


def generate_drop(config, seed):
    """One deployment realization: 3 corridor APs plus uniformly dropped STAs.

    APs sit at the midpoints of the corridor thirds (x = W/6, W/2, 5W/6) on the
    centerline; STAs are i.i.d. uniform over the floor rectangle. Returns the
    nodes, APs first (ids 0-2). Deterministic given `seed` (an int,
    SeedSequence, or Generator).
    """
    if config.n_stas <= 0:
        raise ValueError("n_stas must be strictly positive")
    rng = np.random.default_rng(seed)
    y_mid = config.floor_depth_m / 2.0
    nodes = [
        NodeDescriptor(
            id=a,
            role=ROLE_AP,
            position=(x, y_mid, config.ap_height_m),
            num_antennas=int(config.ap_antennas[a]),
            max_power_dbm=config.ap_max_power_dbm,
        )
        for a, x in enumerate(ap_corridor_x(config.floor_width_m))
    ]
    xs = rng.uniform(0.0, config.floor_width_m, config.n_stas)
    ys = rng.uniform(0.0, config.floor_depth_m, config.n_stas)
    for s in range(config.n_stas):
        nodes.append(
            NodeDescriptor(
                id=3 + s,
                role=ROLE_STA,
                position=(float(xs[s]), float(ys[s]), config.sta_height_m),
                num_antennas=1,
                max_power_dbm=config.sta_max_power_dbm,
            )
        )
    return nodes


def associate(rss_dbm):
    """Serving AP of every STA: the column of the largest average RSS in its
    row of `rss_dbm` (STA x AP, dBm). Exact RSS ties go to the lowest AP id."""
    return np.argmax(rss_dbm, axis=1)
