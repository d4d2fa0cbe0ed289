"""Dense tensors and the reverse-mode differentiation tape.

A Tensor is a numpy float buffer (float32 or float64), in channel-major
(c, h, w) row-major layout for feature maps, and its Node on the tape.
Operations in hgd.ops give each output a new node that records the
parents' nodes, the op's name and a backward closure; ComputeGraph
linearizes those nodes so one reverse sweep visits each exactly once,
summing adjoints into nodes that feed several consumers. An
intermediate's grad lives from its first adjoint until its closure has
run, and the sweep then drops it. A requires_grad leaf keeps its grad
across sweeps, each later sweep's adjoint summed after it, which
train_segmenter relies on to sum a step's gradient.

The tape holds nodes and what the closures keep, and no Tensor. A
closure captures its parents' nodes (to test requires_grad and to hand
them adjoints) and the arrays its backward reads, nothing else. So a
value that no backward reads is freed as soon as the forward and its
caller drop its Tensor, while its node stays on the tape as long as the
output does.

Tensors are treated as immutable after forward construction; only leaves
are written in place (sgd_step, and the tests' parameter edits). So data may
alias: a concatenation whose parts were written into one buffer (ops' out=)
is that buffer, and each part's data is a view of it. Gradients are values:
once an array is some node's grad, nothing writes into it. So an adjoint
that passes through an op unchanged is not copied, and several nodes'
grads may be one buffer.
"""

from __future__ import annotations

import numpy as np

# the precision names of run configs, manifests and `hgd dump`, and the dtypes
PRECISIONS = {"f32": np.float32, "f64": np.float64}


def precision_of(dtype) -> str:
    """The PRECISIONS name of a float32 or float64 dtype."""
    return next(name for name, dt in PRECISIONS.items() if dt == dtype)


class DimensionError(ValueError):
    """Shape mismatch; the message names the offending axis."""


class ConfigError(ValueError):
    """Inconsistent configuration (channel widths, scale ratios, flags)."""


class GradcheckError(RuntimeError):
    """Raised when gradient verification cannot proceed (non-finite loss,
    unsupported dtype) as opposed to merely reporting a mismatch."""


class Node:
    """One value's place on the tape.

    A node holds what the reverse sweep needs of its value: the grad, the
    dims and dtype that adjoints are summed and scattered in, and, for an
    op's output, the parent nodes, the op's name and its backward closure
    (hgd.ops builds those). It never holds the value's data.
    """

    __slots__ = ("grad", "requires_grad", "dims", "dtype", "_parents", "_backward_fn", "_op")

    def __init__(self, dims: tuple, dtype, requires_grad: bool = False):
        self.grad = None
        self.requires_grad = requires_grad
        self.dims = dims
        self.dtype = dtype
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = ""

    def __repr__(self):
        return f"Node(dims={self.dims}, dtype={self.dtype.name}, op={self._op or 'leaf'!r})"


class Tensor:
    """N-dimensional float array and its node on the tape.

    grad, requires_grad and an op output's record (_parents, _op,
    _backward_fn) are read from the node, and grad and _backward_fn are
    set on it: the sweep calls whatever closure the node holds then, so a
    profiler can wrap it. The tensor adds only the data.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in PRECISIONS.values():
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = Node(arr.shape, arr.dtype, bool(requires_grad))

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self) -> tuple:
        return self._node._parents

    @property
    def _op(self) -> str:
        return self._node._op

    @property
    def _backward_fn(self):
        return self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn

    def zero_grad(self):
        self._node.grad = None

    def backward(self):
        backward(ComputeGraph.trace(self), self)

    def __repr__(self):
        return f"Tensor(dims={self.dims}, dtype={self.data.dtype.name}, op={self._op or 'leaf'!r})"


class ComputeGraph:
    """Topologically ordered record of the operations reaching one output.

    nodes[i] precedes every node that consumes it; leaves carry no parents.
    The nodes are the tensors' Nodes, so the graph holds no data.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputeGraph":
        order: list = []
        seen: set = set()
        stack = [(root._node, False)]
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
    grads on leaves only. A leaf keeps its grad across sweeps, and a later
    sweep sums its adjoint after it, so a second sweep over the same graph
    adds the same gradient again; train_segmenter's per-sample sweeps sum
    a step's gradient so. The loss must be a scalar (shape ()).
    """
    if loss.dims != ():
        raise ValueError(f"backward needs a scalar loss, got dims {loss.dims}")
    if not graph.nodes or graph.nodes[-1] is not loss._node:
        raise ValueError("graph was not traced from this loss tensor")
    loss._node.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
