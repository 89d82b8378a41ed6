"""Small complex-matrix algebra for projector and observable manipulations."""

from __future__ import annotations

import numpy as np


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def tensor_product(a, b) -> np.ndarray:
    return np.kron(_as_square(a), _as_square(b))


def is_hermitian(a, tol: float = 1e-9) -> bool:
    a = _as_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_projector(p, tol: float = 1e-9) -> bool:
    p = _as_square(p)
    return is_hermitian(p, tol) and bool(np.max(np.abs(p @ p - p)) <= tol)
