"""Linear precoding and subspace tools: matched filter, zero forcing,
zero forcing with radiation-null constraints, dominant-subspace extraction,
and residual power after projecting out the dominant directions."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, SingularChannelError

_COND_LIMIT = 1e12
_ORTHONORMAL_TOL = 1e-8


@dataclass
class PrecoderSet:
    """Normalized precoding matrix; column k carries the stream of user_map[k]."""

    W: np.ndarray  # (M_tx, K), Frobenius norm 1
    user_map: tuple = ()


@dataclass
class CovarianceSubspace:
    """One unitary basis of the receive space, split after its n_dominant-th
    column into the dominant directions (the nulls) and their orthogonal
    complement, as `dominant_subspace` builds it."""

    basis: np.ndarray  # (M, M) unitary
    n_dominant: int

    @property
    def dominant(self):
        return self.basis[:, : self.n_dominant]

    @property
    def complement(self):
        return self.basis[:, self.n_dominant :]


def matched_filter(h, user=None):
    """Single-stream precoder aligned with the user channel: W = h / ||h||,
    zero forcing's precoder for one user. `h` may be a vector or, for a
    single-antenna AP, a complex number. A zero or non-finite channel raises
    SingularChannelError."""
    h = np.asarray(h, dtype=complex).reshape(-1, 1)
    norm = math.sqrt(np.vdot(h, h).real)
    if not 0.0 < norm < math.inf:
        raise SingularChannelError("matched filter undefined for a zero or non-finite channel")
    return PrecoderSet(W=h / norm, user_map=() if user is None else (user,))


def zf_precoder(h_bar, user_map=()):
    """Zero-forcing precoder for the aggregate channel (M, K).

    W = H (H^H H)^{-1} / sqrt(zeta) with zeta making ||W||_F = 1, so each
    scheduled user receives no power from the other users' streams. This is
    `zf_with_nulls` without null directions.
    """
    h_bar = np.asarray(h_bar, dtype=complex)
    return zf_with_nulls(h_bar, np.empty((h_bar.shape[0], 0), dtype=complex), user_map)


def zf_with_nulls(h_users, u_null, user_map=()):
    """Zero forcing for the user channels H (M, K) with radiation nulls towards
    the columns of U (M, N).

    The user channels are projected off span(U), A = H - U (U^H H), and
    W = A (A^H A)^{-1} is normalized to unit Frobenius norm. Then U^H W = 0 and
    H^H W = A^H W is diagonal: the nulled directions receive no power and the
    users no cross-stream leakage. W equals the first K columns of the
    pseudo-inverse of [H | U], renormalized, without forming that (K+N)-wide
    system.

    U must have orthonormal columns (a QR or singular-vector basis); a U with
    max |U^H U - I| > 1e-8 raises ValueError. Rank test: a Cholesky factor L
    of the K x K Gram A^H A. Its pivots diag(L)^2, with the N unit pivots of
    U^H U = I, are the pivots of the stacked Gram [U | H]^H [U | H]. A failed
    factorization, a non-finite Gram or a pivot ratio max / min above the
    condition limit raises SingularChannelError; the pivot ratio is a lower
    bound on the condition number of that stacked Gram.
    """
    h_users = np.asarray(h_users, dtype=complex)
    u_null = np.asarray(u_null, dtype=complex).reshape(h_users.shape[0], -1)
    m, k = h_users.shape
    n = u_null.shape[1]
    if k + n > m:
        raise CapabilityError(f"{k} streams + {n} nulls exceed {m} antennas")
    a = h_users
    if n:
        u_h = u_null.conj().T
        if np.max(np.abs(u_h @ u_null - np.eye(n))) > _ORTHONORMAL_TOL:
            raise ValueError("null directions must have orthonormal columns")
        a = h_users - u_null @ (u_h @ h_users)
    gram = a.conj().T @ a
    if not np.all(np.isfinite(gram)):
        raise SingularChannelError("projected user channels are not finite")
    try:
        pivots = np.diag(np.linalg.cholesky(gram)).real ** 2
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError("projected user channels are rank deficient") from exc
    if n:
        pivots = np.append(pivots, 1.0)
    if pivots.max() > _COND_LIMIT * pivots.min():
        raise SingularChannelError("projected user channels are rank deficient")
    w_raw = np.linalg.solve(gram, a.conj().T).conj().T
    zeta = float(np.linalg.norm(w_raw) ** 2)
    return PrecoderSet(W=w_raw / np.sqrt(zeta), user_map=tuple(user_map))


def dominant_subspace(a, n_dominant):
    """The n_dominant strongest left-singular directions of an (M, r) matrix
    and their complement: the span of its columns, from one complete QR, when
    n_dominant == r, and the SVD's leading vectors otherwise. For the weighted
    directions B of a covariance Z = B B^H + s I, or for a Hermitian PSD Z
    itself, they are Z's top eigenvectors."""
    a = np.asarray(a)
    m, r = a.shape
    if not 0 <= n_dominant <= min(m, r):
        raise ValueError("n_dominant must lie in [0, min(M, r)]")
    if n_dominant == r:
        basis, _ = np.linalg.qr(a, mode="complete")
    else:
        basis = np.linalg.svd(a)[0]
    return CovarianceSubspace(basis=basis, n_dominant=int(n_dominant))


def residual_power(sub, z_vec):
    """Power of a received vector after projecting out the dominant directions.

    The complement has orthonormal columns, so ||S S^H z|| = ||S^H z||.
    """
    return float(np.linalg.norm(sub.complement.conj().T @ np.asarray(z_vec, dtype=complex)) ** 2)
