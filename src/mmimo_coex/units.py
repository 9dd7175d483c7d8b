"""dB / linear conversions. Linear powers are in milliwatt throughout."""

import numpy as np


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_mw(p_dbm):
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0)


def mw_to_dbm(p_mw):
    return 10.0 * np.log10(p_mw)
