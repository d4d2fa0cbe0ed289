"""Parameter containers and initializers shared across the network modules.

Kernels use fan-in scaled uniform initialization (Kaiming-style): bound =
gain * sqrt(3 / fan_in). The gains are fixed: 1 for the 1x1 convs (purely
affine branches) and sqrt(2) for the 3x3 convs (each followed by relu).
Biases start at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class ConvParams:
    weight: Tensor
    bias: Tensor

    def named(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def conv1x1_params(c_in: int, c_out: int, rng, dtype=np.float64) -> ConvParams:
    bound = math.sqrt(3.0 / c_in)
    weight = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in)).astype(dtype),
                    requires_grad=True)
    bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return ConvParams(weight, bias)


def conv3x3_params(c_in: int, c_out: int, rng, dtype=np.float64) -> ConvParams:
    bound = math.sqrt(2.0) * math.sqrt(3.0 / (9 * c_in))
    weight = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in, 3, 3)).astype(dtype),
                    requires_grad=True)
    bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return ConvParams(weight, bias)


def parameter_count(named_parameters) -> int:
    return sum(t.data.size for _, t in named_parameters)
