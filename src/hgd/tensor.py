"""Dense tensors and the reverse-mode differentiation tape.

A Tensor wraps a numpy float buffer (float32 or float64) in channel-major
(c, h, w) row-major layout for feature maps. Operations in hgd.ops record
their parents and a backward closure on the output tensor; ComputeGraph
linearizes that record so one reverse sweep visits each node exactly once,
summing adjoints into tensors that feed several consumers. Grads land on
requires_grad leaves: an intermediate's grad lives from its first adjoint
until its closure has run, and the sweep then drops it.

Tensors are treated as immutable after forward construction; only leaves
are written in place (sgd_step, and the tests' parameter edits). So data may
alias: a concatenation whose parts were written into one buffer (ops' out=)
is that buffer, and each part's data is a view of it. Gradients are values:
once an array is some tensor's grad, nothing writes into it. So an adjoint
that passes through an op unchanged is not copied, and several tensors'
grads may be one buffer.
"""

from __future__ import annotations

import numpy as np

# When True, every primitive asserts its forward output is finite.
DEBUG_CHECK_FINITE = False

_FLOAT_DTYPES = (np.float32, np.float64)


class DimensionError(ValueError):
    """Shape mismatch; the message names the offending axis."""


class ConfigError(ValueError):
    """Inconsistent configuration (channel widths, scale ratios, flags)."""


class GradcheckError(RuntimeError):
    """Raised when gradient verification cannot proceed (non-finite loss,
    unsupported dtype) as opposed to merely reporting a mismatch."""


class Tensor:
    """N-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = ""

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(ComputeGraph.trace(self), self)

    def __repr__(self):
        return f"Tensor(dims={self.dims}, dtype={self.data.dtype.name}, op={self._op or 'leaf'!r})"


class ComputeGraph:
    """Topologically ordered record of the operations reaching one output.

    nodes[i] precedes every node that consumes it; leaves carry no parents.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputeGraph":
        order: list = []
        seen: set = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(graph: ComputeGraph, loss: Tensor):
    """Sum d loss / d leaf into grad on every requires_grad leaf reaching loss.

    Adjoints from multiple consumers accumulate by summation, into a new
    buffer each time. An intermediate's grad lives from its first adjoint
    until its closure has run and is then dropped, so a sweep ends with
    grads on leaves only, and a second sweep over the same graph adds the
    same gradient again. The loss must be a scalar (shape ()).
    """
    if loss.dims != ():
        raise ValueError(f"backward needs a scalar loss, got dims {loss.dims}")
    if not graph.nodes or graph.nodes[-1] is not loss:
        raise ValueError("graph was not traced from this loss tensor")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
