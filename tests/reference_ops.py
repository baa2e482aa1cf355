"""Autodiff primitives that no command reaches, for tests: ``matmul`` and
``add_rowvec``, the chain that ``tensor.dense`` must match bit for bit, and
``tsum``, the scalar reducer of gradient checks."""

import numpy as np

from xmodal.errors import ShapeMismatchError
from xmodal.tensor import _as_tensor, node


def matmul(a, b):
    """Matrix product with recorded gradients (none formed for a constant operand)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")

    def backward(grad):
        return (grad @ b.data.T if a.grad_enabled else None,
                a.data.T @ grad if b.grad_enabled else None)

    return node(a.data @ b.data, (a, b), backward)


def add_rowvec(a, b):
    """Add a row vector to every row of a matrix (bias broadcast)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 1 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"add_rowvec: shapes {a.data.shape} and {b.data.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def tsum(a):
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    return node(np.sum(a.data), (a,), lambda g: (np.full(a.data.shape, float(g)),))
