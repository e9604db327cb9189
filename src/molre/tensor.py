"""The parameter holder, the two nonlinearities the layers share, and a
finite-difference gradient oracle.

There is no general autodiff tape here: the model graphs in this package are
fixed and shallow, so every layer implements its own backward pass with plain
numpy and the `softmax_backward` companion below. Layers pass plain float64
ndarrays to one another; `Tensor` only pairs a parameter with its gradient.
All math is 64-bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions do not line up."""


class OracleError(RuntimeError):
    """Raised when the finite-difference oracle hits a non-finite evaluation."""


class Tensor:
    """A parameter: a dense float64 array with an optional gradient buffer.

    `data` is always a C-contiguous float64 ndarray. `grad`, when allocated,
    has the same shape and is where backward passes accumulate; it stays
    ``None`` for frozen parameters.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = (
            np.zeros_like(self.data) if requires_grad else None
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self.grad is not None

    @classmethod
    def zeros(cls, shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float64), requires_grad)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Forward primitives
# ---------------------------------------------------------------------------

def softmax(x, axis: int = -1) -> np.ndarray:
    """Softmax along `axis`, computed with max-subtraction for stability."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape[axis] < 1:
        raise ShapeError(f"softmax: empty axis {axis} in shape {xv.shape}")
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(grad_out: np.ndarray, out, axis: int = -1) -> np.ndarray:
    """Jacobian-vector product of softmax given its output."""
    y = np.asarray(out, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function with the overflow-free two-branch form."""
    xv = np.asarray(x, dtype=np.float64)
    out = np.empty_like(xv)
    pos = xv >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    e = np.exp(xv[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(
    f: Callable[[Tensor], float], x, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Used by the test suite as the independent oracle for every analytic
    backward pass. `f` must be deterministic and finite near `x`; it gets
    each perturbed point as a `Tensor`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    xv = np.array(x, dtype=np.float64)
    grad = np.zeros_like(xv)
    flat = xv.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(xv)))
        flat[i] = orig - eps
        lo = float(f(Tensor(xv)))
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise OracleError(
                f"non-finite evaluation at coordinate {i}: f(+)={hi}, f(-)={lo}"
            )
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
