"""Seeded random inputs and oracle linear algebra, numpy only.

Rotations are Haar-distributed on SO(3): QR of a Gaussian matrix with the
sign of R's diagonal folded into Q (F. Mezzadri, "How to generate random
matrices from the classical compact groups", Notices AMS 54, 2007), then
one column flipped when the determinant is -1.  Nothing here imports
scipy, so the workload processes load no more than xcflow itself does.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, workload) so workloads never share draws."""
    return np.random.default_rng([seed, *stream.encode()])


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_spd(rng: np.random.Generator, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Symmetric positive definite 3x3 matrix with eigenvalues drawn from [lo, hi]."""
    q = haar_rotation(rng)
    m = q @ np.diag(rng.uniform(lo, hi, 3)) @ q.T
    return 0.5 * (m + m.T)


def frame_of(p_upper: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L^T P L for g = L L^T: an upper-index tensor in a g-orthonormal frame."""
    chol = np.linalg.cholesky(g)
    return chol.T @ p_upper @ chol


def from_frame(p_frame: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inverse of frame_of: the coordinate components whose frame form is p_frame."""
    inv = np.linalg.inv(np.linalg.cholesky(g))
    m = inv.T @ p_frame @ inv
    return 0.5 * (m + m.T)


def gen_eigs_lower(t_lower: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of T v = lam g v for a lower-index symmetric T."""
    inv = np.linalg.inv(np.linalg.cholesky(g))
    return np.linalg.eigvalsh(inv @ t_lower @ inv.T)


def close(got, want, tol: float) -> bool:
    """Max absolute difference within tol times the larger magnitude (floor 1)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and float(np.abs(got - want).max(initial=0.0)) <= tol * scale
