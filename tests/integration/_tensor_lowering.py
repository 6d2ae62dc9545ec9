"""Test helpers: tensor matricization, the Khatri-Rao product, einsum oracles.

These lower the 3-D kernels onto the 2-D accelerator, which is how the
paper's WS template executes them (Sec. VI models tensors through the same
streaming machinery):

* **SpTTM** ``Y[i,j,r] = sum_k X[i,j,k] U[k,r]`` is exactly the GEMM
  ``X_(3) @ U`` where ``X_(3)`` is the mode-3 unfolding ((I*J) x K) — each
  row is one (i, j) fiber, so CSR rows of the unfolding are CSF fibers.
* **MTTKRP** ``M[i,r] = sum_{j,k} X[i,j,k] B[j,r] C[k,r]`` is the GEMM
  ``X_(1) @ (B (kr) C)`` with ``X_(1)`` the mode-1 unfolding (I x (J*K))
  and ``(kr)`` the column-wise Khatri-Rao product.

``test_tensor_on_simulator.py`` runs both lowerings through the cycle-level
simulator and checks them against the direct einsum oracles below.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_dense_matrix, check_dense_tensor


def matricize_mode3(x: np.ndarray) -> np.ndarray:
    """Mode-3 unfolding: (I, J, K) -> (I*J, K), fiber-major rows."""
    x = check_dense_tensor(x, "x")
    i, j, k = x.shape
    return x.reshape(i * j, k)


def matricize_mode1(x: np.ndarray) -> np.ndarray:
    """Mode-1 unfolding: (I, J, K) -> (I, J*K), row-major within a slice."""
    x = check_dense_tensor(x, "x")
    i, j, k = x.shape
    return x.reshape(i, j * k)


def khatri_rao(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao product: (J, R) x (K, R) -> (J*K, R).

    Column r of the result is ``kron(B[:, r], C[:, r])``; rows are ordered
    (j, k) row-major, matching :func:`matricize_mode1`'s column order.
    """
    b = check_dense_matrix(b, "b")
    c = check_dense_matrix(c, "c")
    if b.shape[1] != c.shape[1]:
        raise ValueError(
            f"factor ranks disagree: {b.shape[1]} vs {c.shape[1]}"
        )
    j, r = b.shape
    k, _ = c.shape
    return (b[:, None, :] * c[None, :, :]).reshape(j * k, r)


def fold_mode3(y: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`matricize_mode3` on the output side:
    ((I*J), R) -> (I, J, R)."""
    y = check_dense_matrix(y, "y")
    i, j, _k = shape
    return y.reshape(i, j, y.shape[1])


def ref_spttm(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mode-3 tensor-times-matrix oracle."""
    return np.einsum("ijk,kr->ijr", x, u)


def ref_mttkrp(x: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Mode-1 MTTKRP oracle."""
    return np.einsum("ijk,jr,kr->ir", x, b, c)
