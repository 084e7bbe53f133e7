import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsim.feature_space import (FeatureMap, apply_map, conjugate_apply,
                                    random_map, span_basis, spectral_stats)


def test_feature_map_rejects_singular_and_nonsquare():
    with pytest.raises(ValueError, match="square"):
        FeatureMap(np.ones((2, 3)))
    with pytest.raises(ValueError, match="singular"):
        FeatureMap(np.zeros((3, 3)))


def test_feature_map_matrix_is_frozen():
    fmap = FeatureMap(np.eye(3))
    with pytest.raises(ValueError):
        fmap.matrix[0, 0] = 2.0


def test_unitary_flag_checks_the_matrix():
    assert FeatureMap(np.eye(4)).is_unitary
    assert not FeatureMap(np.diag([1.0, 2.0])).is_unitary
    # read off max|G^T G - I| <= 1e-10, rounding of a rotation included
    c, s = np.cos(0.3), np.sin(0.3)
    assert FeatureMap(np.array([[c, -s], [s, c]])).is_unitary
    assert FeatureMap(np.diag([1.0, 1.0 + 1e-11])).is_unitary
    assert not FeatureMap(np.diag([1.0, 1.0 + 1e-9])).is_unitary


def test_adjoint_identity_random_maps():
    # <w, Gx> == <G^T w, x> for all vectors, the identity everything
    # downstream leans on
    gen = np.random.default_rng(0)
    for trial in range(30):
        d = int(gen.integers(1, 9))
        fmap = FeatureMap(gen.standard_normal((d, d))
                          + 3.0 * np.eye(d))
        w = gen.standard_normal(d)
        x = gen.standard_normal(d)
        lhs = float(w @ apply_map(fmap, x))
        rhs = float(conjugate_apply(fmap, w) @ x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _strided(gen, d, stride):
    """A length-d vector whose entries sit stride elements apart; stride
    0 broadcasts one number."""
    if stride == 0:
        return np.broadcast_to(gen.standard_normal(), (d,))
    return gen.standard_normal(d * abs(stride))[::stride][:d]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 64),
       map_kind=st.sampled_from(("identity", "unitary", "general")),
       fortran=st.booleans(),
       stride=st.sampled_from((1, 2, 3, -1, 0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_apply_map_matches_the_matmul_bit_for_bit(d, map_kind, fortran,
                                                  stride, seed):
    # apply_map takes ndarray.dot for its lower call overhead; it must
    # round exactly as fmap.matrix @ x, whatever the layout of either,
    # reversed (stride -1) and broadcast (stride 0) views included
    gen = np.random.default_rng(seed)
    fmap = random_map(d, map_kind, seed)
    if fortran:
        copy = FeatureMap(np.asfortranarray(fmap.matrix))
        assert ((copy.is_unitary, copy.is_identity)
                == (fmap.is_unitary, fmap.is_identity))
        fmap = copy
    x = _strided(gen, d, stride)
    assert apply_map(fmap, x).tobytes() == (fmap.matrix @ x).tobytes()


def test_spectral_stats_against_svd_oracle():
    gen = np.random.default_rng(1)
    for trial in range(20):
        d = int(gen.integers(2, 10))
        g = gen.standard_normal((d, d)) + 2.0 * np.eye(d)
        stats = spectral_stats(FeatureMap(g))
        sv = np.linalg.svd(g, compute_uv=False)
        # stats report eigenvalues of G^T G = squared singular values of G
        np.testing.assert_allclose(stats.sigma_max, sv[0] ** 2, rtol=1e-10)
        np.testing.assert_allclose(stats.sigma_min, sv[-1] ** 2, rtol=1e-10)


def test_random_map_identity():
    fmap = random_map(5, "identity", 3)
    np.testing.assert_array_equal(fmap.matrix, np.eye(5))
    assert fmap.is_unitary


def test_random_map_unitary_properties():
    for seed in range(5):
        fmap = random_map(7, "unitary", seed)
        assert fmap.is_unitary
        np.testing.assert_allclose(fmap.matrix.T @ fmap.matrix, np.eye(7),
                                   atol=1e-12)
    # determinism and seed sensitivity
    a = random_map(7, "unitary", 0).matrix
    b = random_map(7, "unitary", 0).matrix
    c = random_map(7, "unitary", 1).matrix
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_map_general_conditioning():
    for d in (3, 10, 40):
        for seed in range(3):
            fmap = random_map(d, "general", seed)
            assert not fmap.is_unitary or d == 1
            sv = np.linalg.svd(fmap.matrix, compute_uv=False)
            assert sv[0] / sv[-1] <= 100.0 + 1e-9


def test_random_map_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        random_map(3, "banana", 0)


def _projector(basis, d):
    """B B^T for a span basis B, the identity when span_basis returned
    None for a span that is all of R^d."""
    return np.eye(d) if basis is None else basis @ basis.T


def test_span_basis_projection_against_lstsq_oracle():
    gen = np.random.default_rng(2)
    for trial in range(15):
        d = int(gen.integers(2, 10))
        k = int(gen.integers(1, d + 1))
        cands = gen.standard_normal((d, k))
        basis = span_basis(cands)
        assert (basis is None) == (k == d)
        v = gen.standard_normal(d)
        # oracle: least-squares projection onto the column span
        coef, *_ = np.linalg.lstsq(cands, v, rcond=None)
        expected = cands @ coef
        np.testing.assert_allclose(_projector(basis, d) @ v, expected,
                                   rtol=1e-9, atol=1e-9)


def test_span_basis_rank_with_duplicate_columns():
    cands = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
    # columns: (1,0,1), (2,0,2), (1,0,1) span a single direction
    assert span_basis(cands).shape == (3, 1)


def test_span_basis_checks_its_candidates():
    with pytest.raises(ValueError, match="2-D"):
        span_basis(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        span_basis(np.array([[1.0, np.nan], [0.0, 1.0]]))
    for cands in (np.zeros((3, 2)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="zero vectors"):
            span_basis(cands)


def test_projection_is_idempotent_and_inside_span():
    gen = np.random.default_rng(4)
    cands = gen.standard_normal((8, 4))
    basis = span_basis(cands)
    v = gen.standard_normal(8)
    p = basis @ (basis.T @ v)
    np.testing.assert_allclose(basis @ (basis.T @ p), p, rtol=1e-9,
                               atol=1e-12)
    # residual orthogonal to every candidate column
    np.testing.assert_allclose(cands.T @ (v - p), np.zeros(4), atol=1e-9)


def _kxk_projector(candidates):
    """The projector D (D^T D)^+ D^T through the k x k Gram matrix, with
    eigenvalues below 1e-10 times the largest dropped; returns it and the
    rank kept."""
    vals, vecs = np.linalg.eigh(candidates.T @ candidates)
    keep = vals > 1e-10 * vals[-1]
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    proj = candidates @ ((vecs * inv) @ vecs.T) @ candidates.T
    return 0.5 * (proj + proj.T), int(np.count_nonzero(keep))


def _span(gen, d, k, rank):
    """A d x k candidate matrix of the given rank, its nonzero singular
    values in [0.5, 2], where the k x k formula is accurate.  When k is
    1 mod 3 a column is repeated, when it is 2 mod 3 about 30% of the
    columns are zeroed."""
    u, _ = np.linalg.qr(gen.standard_normal((d, rank)))
    v, _ = np.linalg.qr(gen.standard_normal((k, rank)))
    cands = (u * gen.uniform(0.5, 2.0, rank)) @ v.T
    if k % 3 == 1:
        cands[:, gen.integers(0, k)] = cands[:, 0]
    if k % 3 == 2:
        cands[:, gen.random(k) < 0.3] = 0.0
    return cands


def test_span_basis_matches_the_kxk_gram_projector():
    # rank-deficient spans, repeated columns and zero columns, with k
    # below, at and above d
    gen = np.random.default_rng(11)
    for _ in range(200):
        d = int(gen.integers(1, 12))
        k = int(gen.integers(1, 2 * d + 3))
        rank = int(gen.integers(1, min(d, k) + 1))
        cands = _span(gen, d, k, rank)
        if not np.any(cands):
            continue
        basis = span_basis(cands)
        expected, expected_rank = _kxk_projector(cands)
        assert (d if basis is None else basis.shape[1]) == expected_rank
        assert np.max(np.abs(_projector(basis, d) - expected)) <= 1e-12


def test_span_basis_is_accurate_on_ill_conditioned_spans():
    # singular values spread over 1e-2..1e2: a Gram matrix would square
    # the spread, the SVD of D keeps B B^T within rounding of U U^T
    gen = np.random.default_rng(12)
    for trial in range(400):
        d = int(gen.integers(1, 12))
        k = max(1, d + (-1, 0, 1 + d)[trial % 3])
        rank = int(gen.integers(1, min(d, k) + 1))
        u, _ = np.linalg.qr(gen.standard_normal((d, rank)))
        v, _ = np.linalg.qr(gen.standard_normal((k, rank)))
        cands = (u * 10.0 ** gen.uniform(-2.0, 2.0, rank)) @ v.T
        basis = span_basis(cands)
        assert (d if basis is None else basis.shape[1]) == rank
        assert np.max(np.abs(_projector(basis, d) - u @ u.T)) <= 1e-12
