"""Linear maps between the teacher's and the student's feature spaces.

The teacher and the student both work in R^d, connected by an invertible
linear map G (a student sees G x where the teacher wrote x).  Everything
downstream leans on two facts: <w, G x> = <G^T w, x>, and the extreme
eigenvalues of G^T G control how fast teaching can contract.  This module
holds the map itself, its spectral summary, and the span basis used by
combination-style teaching.
"""

import numpy as np

from .rng import KEY_MAP, substream

# Relative singular-value cutoff of the span's rank decision, the square
# root of a 1e-10 cutoff on the eigenvalues of D D^T.
_RANK_CUTOFF = 1e-5

# A map is treated as conjugate-orthogonal when max|G^T G - I| is below this.
_UNITARY_TOL = 1e-10


class FeatureMap:
    """Invertible linear map from teacher space R^d to student space R^d.

    Only square maps are supported; the matrix must be far from singular
    (smallest singular value above 1e-10).  ``is_unitary`` records that
    max|G^T G - I| <= 1e-10, which lets teachers skip repeated feedback
    exams.  ``is_identity`` records that the matrix equals I entry for
    entry, so that a query can skip the product G x (see
    RemoteLearner.query).  Both are read off the matrix once, here.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"map matrix must be 2-D, got shape {m.shape}")
        if m.shape[0] != m.shape[1]:
            raise ValueError(
                f"only square maps are supported, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("map matrix has non-finite entries")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= 1e-10:
            raise ValueError(
                f"map is numerically singular (smallest singular value "
                f"{svals[-1]:.3e})")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.d = m.shape[1]
        eye = np.eye(self.d)
        self.is_unitary = bool(np.max(np.abs(m.T @ m - eye)) <= _UNITARY_TOL)
        self.is_identity = bool(np.array_equal(m, eye))

    def __repr__(self):
        tag = "unitary" if self.is_unitary else "general"
        return f"FeatureMap(d={self.d}, {tag})"


def apply_map(fmap, x):
    """Student-space image G x of a teacher-space vector.

    Every exam query and teaching step passes through here.  For a
    contiguous vector x, ndarray.dot calls the same BLAS gemv as
    ``fmap.matrix @ x``, so the bits match, at about half the call
    overhead.  Any other layout keeps ``@``: dot would first copy a
    reversed or broadcast view and sum it in another order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != fmap.d:
        raise ValueError(
            f"map expects dimension {fmap.d}, got {x.shape[-1]}")
    if x.ndim == 1 and x.flags.c_contiguous:
        return fmap.matrix.dot(x)
    return fmap.matrix @ x


def conjugate_apply(fmap, w):
    """Teacher-space pullback G^T w of a student-space vector.

    Satisfies <w, apply_map(G, x)> = <conjugate_apply(G, w), x>.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != fmap.d:
        raise ValueError(
            f"conjugate expects dimension {fmap.d}, got {w.shape[-1]}")
    return fmap.matrix.T @ w


class SpectralStats:
    """Extreme eigenvalues of G^T G."""

    def __init__(self, sigma_min, sigma_max):
        if not (0 < sigma_min <= sigma_max):
            raise ValueError(
                f"need 0 < sigma_min <= sigma_max, got "
                f"({sigma_min:.3e}, {sigma_max:.3e})")
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)

    def __repr__(self):
        return (f"SpectralStats(sigma_min={self.sigma_min:.6g}, "
                f"sigma_max={self.sigma_max:.6g})")


def spectral_stats(fmap):
    """Smallest/largest eigenvalue of G^T G (symmetric eigendecomposition)."""
    gram = fmap.matrix.T @ fmap.matrix
    vals = np.linalg.eigvalsh(gram)
    if vals[0] <= 1e-12:
        raise ValueError(
            f"G^T G numerically rank-deficient (min eigenvalue {vals[0]:.3e})")
    return SpectralStats(vals[0], vals[-1])


def random_map(dim, kind, seed):
    """Seeded random feature map.

    kind "unitary": QR orthogonalization of a Gaussian matrix with the
    usual sign fix, so G^T G = I to floating-point accuracy.

    kind "general": Gaussian entries, resampled while the eigenvalue ratio
    of G^T G exceeds 100.  Raw Gaussian matrices essentially never meet
    that bound once dim grows past ~15, so after a few failed draws the
    singular values of the last draw are compressed into a fixed
    well-conditioned range while keeping its (Haar-distributed) singular
    vectors.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if kind == "identity":
        return FeatureMap(np.eye(dim))
    gen = substream(seed, KEY_MAP)
    if kind == "unitary":
        a = gen.standard_normal((dim, dim))
        q, r = np.linalg.qr(a)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
        return FeatureMap(q)
    if kind == "general":
        m = None
        for _ in range(8):
            cand = gen.standard_normal((dim, dim))
            svals = np.linalg.svd(cand, compute_uv=False)
            if svals[-1] > 1e-10 and (svals[0] / svals[-1]) ** 2 <= 100.0:
                m = cand
                break
        if m is None:
            # Compress the spectrum: map singular values affinely onto
            # [s_max/8, s_max], giving kappa = 64 <= 100.
            u, svals, vt = np.linalg.svd(cand)
            top = svals[0]
            lo, hi = svals[-1], svals[0]
            if hi - lo < 1e-12 * top:
                fixed = np.full_like(svals, top)
            else:
                fixed = top / 8.0 + (svals - lo) * (top - top / 8.0) / (hi - lo)
            m = (u * fixed) @ vt
        return FeatureMap(m)
    raise ValueError(f"unknown map kind {kind!r}")


def span_basis(candidates):
    """Orthonormal basis of the span of a d x k candidate matrix D.

    Returns the left singular vectors of D whose singular values exceed
    1e-5 times the largest, as a d x r matrix, or None when r = d and the
    span is all of R^d.  An SVD of D itself keeps the basis accurate to
    rounding however the singular values spread; the Gram matrix D D^T
    would square that spread.
    """
    d_mat = np.asarray(candidates, dtype=np.float64)
    if d_mat.ndim != 2:
        raise ValueError(
            f"candidate matrix must be 2-D, got shape {d_mat.shape}")
    if not np.all(np.isfinite(d_mat)):
        raise ValueError("candidate matrix has non-finite entries")
    u, svals, _ = np.linalg.svd(d_mat, full_matrices=False)
    if not svals.size or svals[0] <= 0.0:
        raise ValueError("all candidates are zero vectors")
    rank = int(np.count_nonzero(svals > _RANK_CUTOFF * svals[0]))
    return None if rank == d_mat.shape[0] else u[:, :rank]
