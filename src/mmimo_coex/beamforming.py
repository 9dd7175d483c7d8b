"""Linear precoding and subspace tools: matched filter, zero forcing,
zero forcing with radiation-null constraints, dominant-subspace extraction,
and residual power after projecting out the dominant directions."""

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, SingularChannelError

_COND_LIMIT = 1e12


@dataclass
class PrecoderSet:
    """Normalized precoding matrix; column k carries the stream of user_map[k]."""

    W: np.ndarray  # (M_tx, K), Frobenius norm 1
    user_map: tuple = ()


@dataclass
class CovarianceSubspace:
    """Eigen-decomposed received covariance split at the n_dominant-th direction."""

    eigenvalues: np.ndarray  # sorted non-increasing
    eigenvectors: np.ndarray  # unitary, columns aligned with eigenvalues
    n_dominant: int

    @property
    def dominant(self):
        return self.eigenvectors[:, : self.n_dominant]

    @property
    def complement(self):
        return self.eigenvectors[:, self.n_dominant :]


def matched_filter(h, user=None):
    """Single-stream precoder aligned with the user channel: W = h / ||h||."""
    h = np.asarray(h, dtype=complex).reshape(-1, 1)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("matched filter undefined for a zero channel")
    return PrecoderSet(W=h / norm, user_map=() if user is None else (user,))


def zf_precoder(h_bar, user_map=()):
    """Zero-forcing precoder for the aggregate channel (M, K).

    W = H (H^H H)^{-1} / sqrt(zeta) with zeta making ||W||_F = 1, so each
    scheduled user receives no power from the other users' streams.
    """
    h_bar = np.asarray(h_bar, dtype=complex)
    m, k = h_bar.shape
    if k > m:
        raise CapabilityError(f"{k} streams exceed {m} antennas")
    gram = h_bar.conj().T @ h_bar
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularChannelError("aggregate channel matrix is rank deficient")
    w_raw = np.linalg.solve(gram, h_bar.conj().T).conj().T
    zeta = float(np.linalg.norm(w_raw) ** 2)
    return PrecoderSet(W=w_raw / np.sqrt(zeta), user_map=tuple(user_map))


def zf_with_nulls(h_users, u_null, user_map=()):
    """Zero forcing over [user channels | nulled directions], keeping the user columns.

    The stacked matrix is inverted as in plain ZF; only the first K columns are
    transmitted and they are renormalized to unit Frobenius norm, so the nulled
    directions receive (numerically) zero power without spending any of it.
    """
    h_users = np.asarray(h_users, dtype=complex)
    u_null = np.asarray(u_null, dtype=complex).reshape(h_users.shape[0], -1)
    m, k = h_users.shape
    n = u_null.shape[1]
    if n == 0:
        return zf_precoder(h_users, user_map)
    if k + n > m:
        raise CapabilityError(f"{k} streams + {n} nulls exceed {m} antennas")
    stacked = np.concatenate([h_users, u_null], axis=1)
    gram = stacked.conj().T @ stacked
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _COND_LIMIT:
        raise SingularChannelError("stacked user/null matrix is rank deficient")
    w_full = np.linalg.solve(gram, stacked.conj().T).conj().T
    w_users = w_full[:, :k]
    zeta = float(np.linalg.norm(w_users) ** 2)
    return PrecoderSet(W=w_users / np.sqrt(zeta), user_map=tuple(user_map))


def dominant_subspace(z, n_dominant):
    """Eigen-decompose a Hermitian covariance, eigenvalues sorted descending."""
    z = np.asarray(z)
    m = z.shape[0]
    if z.shape != (m, m):
        raise ValueError("covariance must be square")
    scale = np.linalg.norm(z)
    if scale > 0 and np.linalg.norm(z - z.conj().T) > 1e-8 * scale:
        raise ValueError("covariance must be Hermitian")
    if not 0 <= n_dominant <= m:
        raise ValueError("n_dominant must lie in [0, M]")
    eigenvalues, eigenvectors = np.linalg.eigh((z + z.conj().T) / 2.0)
    order = np.arange(m - 1, -1, -1)
    return CovarianceSubspace(
        eigenvalues=eigenvalues[order],
        eigenvectors=eigenvectors[:, order],
        n_dominant=int(n_dominant),
    )


def residual_power(sub, z_vec):
    """Power of a received vector after projecting out the dominant directions.

    The complement has orthonormal columns, so ||S S^H z|| = ||S^H z||.
    """
    return float(np.linalg.norm(sub.complement.conj().T @ np.asarray(z_vec, dtype=complex)) ** 2)
