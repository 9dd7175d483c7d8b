"""Floor layout, node placement, and STA-to-AP association."""

import functools
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


@functools.lru_cache(maxsize=8, typed=True)
def _corridor_aps(width_m, depth_m, height_m, antennas, power_dbm):
    """The three corridor AP descriptors (ids 0-2), built once per floor,
    antenna counts and power: they are immutable and shared by every drop."""
    return tuple(
        NodeDescriptor(
            id=a,
            role=ROLE_AP,
            position=(x, depth_m / 2.0, height_m),
            num_antennas=int(antennas[a]),
            max_power_dbm=power_dbm,
        )
        for a, x in enumerate(ap_corridor_x(width_m))
    )


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
    nodes = list(
        _corridor_aps(
            config.floor_width_m, config.floor_depth_m, config.ap_height_m, config.ap_antennas, config.ap_max_power_dbm
        )
    )
    xs = rng.uniform(0.0, config.floor_width_m, config.n_stas).tolist()
    ys = rng.uniform(0.0, config.floor_depth_m, config.n_stas).tolist()
    z, power = config.sta_height_m, config.sta_max_power_dbm
    # positional: keyword arguments cost a third of a descriptor's construction
    nodes += [NodeDescriptor(3 + s, ROLE_STA, (x, y, z), 1, power) for s, (x, y) in enumerate(zip(xs, ys))]
    return nodes


def associate(rss_dbm):
    """Serving AP of every STA: the column of the largest average RSS in its
    row of `rss_dbm` (STA x AP, dBm). Exact RSS ties go to the lowest AP id."""
    return np.argmax(rss_dbm, axis=1)
