import numpy as np
import pytest

from conftest import crandn

from mmimo_coex.beamforming import (
    dominant_subspace,
    matched_filter,
    residual_power,
    zf_precoder,
    zf_with_nulls,
)
from mmimo_coex.channel import received_covariance
from mmimo_coex.errors import CapabilityError, SingularChannelError
from mmimo_coex.geometry import ROLE_AP, ROLE_STA, NodeDescriptor


# ---- matched filter ----------------------------------------------------------


def test_matched_filter_unit_vector():
    e1 = np.zeros(8)
    e1[0] = 1.0
    p = matched_filter(e1)
    assert np.allclose(p.W[:, 0], e1)


def test_matched_filter_normalizes():
    rng = np.random.default_rng(0)
    h = crandn(rng, 16)
    p = matched_filter(h)
    assert np.linalg.norm(p.W) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.W[:, 0], h / np.linalg.norm(h))


def test_matched_filter_scalar_unit_modulus():
    p = matched_filter(np.array([0.3 - 0.4j]))
    assert abs(p.W[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_matched_filter_rejects_zero():
    with pytest.raises(ValueError):
        matched_filter(np.zeros(4))
    # zero forcing's rank test voids the same channels: zero, overflowing or NaN
    for h in (np.zeros(4), np.full(4, 1e200), np.array([1.0, np.nan, 0.0, 0.0]), complex("inf")):
        with pytest.raises(SingularChannelError):
            matched_filter(h)


# ---- zero forcing ------------------------------------------------------------


def test_zf_single_user_equals_matched_filter():
    rng = np.random.default_rng(1)
    h = crandn(rng, 12)
    zf = zf_precoder(h[:, None])
    mf = matched_filter(h)
    phase = zf.W[0, 0] / mf.W[0, 0]
    assert np.allclose(zf.W, mf.W * phase, atol=1e-10)


def test_zf_orthonormal_channel():
    q, _ = np.linalg.qr(crandn(np.random.default_rng(2), 8, 3))
    p = zf_precoder(q)
    assert np.allclose(p.W, q / np.sqrt(3), atol=1e-10)


def test_zf_zeroes_cross_user_leakage():
    rng = np.random.default_rng(3)
    h = crandn(rng, 8, 3)
    p = zf_precoder(h)
    eff = h.conj().T @ p.W  # (user, stream)
    diag = np.abs(np.diag(eff))
    off = np.abs(eff - np.diag(np.diag(eff)))
    assert np.max(off) / np.min(diag) < 1e-9


def test_zf_rejects_rank_deficient():
    h = np.ones((6, 2), dtype=complex)
    with pytest.raises(SingularChannelError):
        zf_precoder(h)


def test_zf_rejects_too_many_streams():
    rng = np.random.default_rng(5)
    with pytest.raises(CapabilityError):
        zf_precoder(crandn(rng, 3, 4))


# ---- zero forcing with nulls ---------------------------------------------------


def test_nulls_empty_reduces_to_zf():
    rng = np.random.default_rng(6)
    h = crandn(rng, 10, 4)
    a = zf_precoder(h)
    b = zf_with_nulls(h, np.zeros((10, 0)))
    assert np.allclose(a.W, b.W)


def test_null_directions_receive_nothing():
    rng = np.random.default_rng(7)
    h = crandn(rng, 36, 4)
    q, _ = np.linalg.qr(crandn(rng, 36, 24))
    p = zf_with_nulls(h, q)
    assert np.linalg.norm(p.W) == pytest.approx(1.0, abs=1e-9)
    leak = np.abs(q.conj().T @ p.W)
    assert np.max(leak) < 1e-8


def test_nulls_do_not_touch_orthogonal_users():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(crandn(rng, 16, 10))
    u_null = q[:, :6]
    h = q[:, 6:]  # users orthogonal to the nulled subspace
    with_nulls = zf_with_nulls(h, u_null)
    without = zf_precoder(h)
    gain_w = np.abs(np.diag(h.conj().T @ with_nulls.W))
    gain_o = np.abs(np.diag(h.conj().T @ without.W))
    assert np.allclose(gain_w, gain_o, rtol=1e-6)


def test_nulls_capability_error():
    rng = np.random.default_rng(9)
    with pytest.raises(CapabilityError):
        zf_with_nulls(crandn(rng, 8, 4), crandn(rng, 8, 5))


def _stacked_zf_reference(h, u_null):
    """Zero forcing with nulls by the stacked formula: invert [H | U] through
    its (K+N) x (K+N) Gram, keep the K user columns and renormalize."""
    stacked = np.concatenate([h, u_null], axis=1)
    w_full = np.linalg.solve(stacked.conj().T @ stacked, stacked.conj().T).conj().T
    w_users = w_full[:, : h.shape[1]]
    return w_users / np.linalg.norm(w_users)


def test_nulls_match_stacked_pseudo_inverse():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(0, 25))
        m = int(rng.integers(max(k + n + 2, 8), 37))
        h = crandn(rng, m, k)
        q, _ = np.linalg.qr(crandn(rng, m, n))
        expected = _stacked_zf_reference(h, q)
        got = zf_with_nulls(h, q).W
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_nulls_reject_duplicated_user():
    rng = np.random.default_rng(16)
    h = crandn(rng, 36, 3)
    h[:, 2] = h[:, 0]
    q, _ = np.linalg.qr(crandn(rng, 36, 24))
    with pytest.raises(SingularChannelError):
        zf_with_nulls(h, q)


def test_nulls_reject_user_inside_null_span():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(crandn(rng, 36, 24))
    h = crandn(rng, 36, 3)
    h[:, 1] = q @ crandn(rng, 24)
    with pytest.raises(SingularChannelError):
        zf_with_nulls(h, q)
    with pytest.raises(SingularChannelError):
        zf_with_nulls(h[:, 1:2], q)  # a single user with nothing left after projection


def test_nulls_reject_non_orthonormal_directions():
    rng = np.random.default_rng(18)
    q, _ = np.linalg.qr(crandn(rng, 36, 24))
    h = crandn(rng, 36, 4)
    for u_null in (q * np.r_[1.0 + 1e-6, np.ones(23)], 2.0 * q, crandn(rng, 36, 24)):
        with pytest.raises(ValueError, match="orthonormal") as err:
            zf_with_nulls(h, u_null)
        assert not isinstance(err.value, SingularChannelError)


# ---- dominant subspace ---------------------------------------------------------


def test_dominant_subspace_diagonal():
    sub = dominant_subspace(np.diag([5.0, 2.0, 1.0]).astype(complex), 1)
    assert np.allclose(np.abs(sub.dominant[:, 0]), [1, 0, 0])
    span = sub.complement @ sub.complement.conj().T
    assert np.allclose(span, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    z = np.diag([5.0, 2.0, 1.0])
    assert np.allclose(sub.basis.conj().T @ z @ sub.basis, np.diag([5.0, 2.0, 1.0]), atol=1e-12)


def test_dominant_subspace_extremes():
    rng = np.random.default_rng(10)
    a = crandn(rng, 6, 6)
    z = a @ a.conj().T
    full = dominant_subspace(z, 0)
    assert full.complement.shape == (6, 6)
    assert np.allclose(full.complement @ full.complement.conj().T, np.eye(6), atol=1e-10)
    none = dominant_subspace(z, 6)
    assert none.complement.shape == (6, 0)
    proj = none.complement @ none.complement.conj().T
    assert np.allclose(proj, np.zeros((6, 6)))


def test_dominant_subspace_reconstruction():
    rng = np.random.default_rng(11)
    a = crandn(rng, 12, 12)
    z = a @ a.conj().T
    sub = dominant_subspace(z, 4)
    # the basis diagonalizes z, eigenvalues in descending order
    d = sub.basis.conj().T @ z @ sub.basis
    eigenvalues = np.linalg.eigvalsh(z)[::-1]
    assert np.linalg.norm(d - np.diag(eigenvalues)) / np.linalg.norm(z) < 1e-12
    rebuilt = sub.basis @ np.diag(eigenvalues) @ sub.basis.conj().T
    assert np.linalg.norm(rebuilt - z) / np.linalg.norm(z) < 1e-8


@pytest.mark.parametrize("r", [0, 1, 5, 12])
def test_span_subspace_splits_a_unitary_basis_at_the_span(r):
    rng = np.random.default_rng(16 + r)
    vectors = crandn(rng, 12, r)
    sub = dominant_subspace(vectors, r)
    assert sub.dominant.shape == (12, r) and sub.complement.shape == (12, 12 - r)
    assert np.allclose(sub.basis.conj().T @ sub.basis, np.eye(12), atol=1e-12)
    # every column lies in the dominant block: nothing is left in the complement
    for v in vectors.T:
        assert residual_power(sub, v) <= 1e-24 * np.linalg.norm(v) ** 2


def test_dominant_subspace_of_graded_directions_matches_the_covariance():
    # the weighted directions sqrt(p_t) v_t of r transmitters, as a non-square
    # (M, r) matrix, with powers p_t spread over 1e-40..1e40
    rng = np.random.default_rng(18)
    m, exponents = 12, [40.0, 39.5, 39.0, 38.5, 20.0, 0.0, -20.0, -40.0]
    r = len(exponents)
    v = crandn(rng, m, r)
    powers = 10.0 ** np.array(exponents)
    a = v * np.sqrt(powers)
    x = NodeDescriptor(0, ROLE_AP, (0.0, 0.0, 3.0), m, 24.0)
    txs = [NodeDescriptor(t + 1, ROLE_STA, (float(t), 0.0, 1.5), 1, 18.0) for t in range(r)]
    links = {(0, t + 1): (1.0, v[:, t][None, :].conj()) for t in range(r)}
    z = received_covariance(x, txs, links, {t + 1: p for t, p in enumerate(powers)}, noise_power=1e-3)
    top = np.linalg.eigh(z)[1][:, ::-1]
    # below r: the top-n eigenvectors of Z = A A^H + noise I. The reference's
    # eigh resolves a split only where the n-th eigenvalue stands well above
    # eps ||Z||, which holds within the four strongest directions.
    for n in range(1, 5):
        u = dominant_subspace(a, n).dominant
        np.testing.assert_allclose(u @ u.conj().T, top[:, :n] @ top[:, :n].conj().T, rtol=0, atol=1e-10)
    # at r: the span of every column, however weak
    sub = dominant_subspace(a, r)
    assert sub.dominant.shape == (m, r)
    for col in a.T:
        assert residual_power(sub, col) <= 1e-12 * np.vdot(col, col).real
    with pytest.raises(ValueError):
        dominant_subspace(a, r + 1)


# ---- residual power ------------------------------------------------------------


def test_residual_power_annihilates_dominant_span():
    rng = np.random.default_rng(12)
    a = crandn(rng, 8, 8)
    z = a @ a.conj().T
    sub = dominant_subspace(z, 3)
    v = sub.dominant @ crandn(rng, 3)
    assert residual_power(sub, v) < 1e-10 * np.linalg.norm(v) ** 2


def test_residual_power_identity_when_no_nulls():
    rng = np.random.default_rng(13)
    a = crandn(rng, 8, 8)
    sub = dominant_subspace(a @ a.conj().T, 0)
    v = crandn(rng, 8)
    assert residual_power(sub, v) == pytest.approx(float(np.linalg.norm(v) ** 2), rel=1e-12)


def test_residual_power_unit_complement_vector():
    rng = np.random.default_rng(14)
    a = crandn(rng, 8, 8)
    sub = dominant_subspace(a @ a.conj().T, 3)
    assert residual_power(sub, sub.basis[:, 3]) == pytest.approx(1.0, abs=1e-10)


def test_residual_power_monotone_in_nulls():
    rng = np.random.default_rng(15)
    a = crandn(rng, 10, 10)
    z = a @ a.conj().T
    v = crandn(rng, 10)
    values = [residual_power(dominant_subspace(z, n), v) for n in range(11)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
