"""Feed-forward layers of the numpy neural-network substrate.

The paper trains two CNNs (for MNIST-O/MNIST-F and CIFAR-10) and an LSTM
with TensorFlow; reproducing offline requires a from-scratch substrate.
Every layer implements the same tiny contract:

* ``forward(x, training)`` caches what backward needs and returns the
  activation,
* ``backward(grad)`` consumes ``dL/dy`` and returns ``dL/dx`` while filling
  ``self.grads`` aligned with ``self.params``,
* ``params`` / ``grads`` are parallel lists of arrays (possibly empty), and
  FedAvg manipulates weights exclusively through them.

:class:`~repro.fl.nn.model.Sequential` clears ``_input_grad`` on its first
layer, whose ``dL/dx`` nobody reads: ``Dense`` and ``Conv2D`` then fill
``grads`` and return ``None`` instead of paying for the input gradient.  A
layer used on its own always returns ``dL/dx``.

Convolutions use im2col/col2im so the heavy lifting is one GEMM per layer —
the standard trick for acceptable pure-numpy speed.  All layers are
gradient-checked against central finite differences in the test suite.

The super-linear kernels (GEMM, im2col/col2im) are fetched at call time
from the active :mod:`~repro.fl.nn.backends` entry, so a registered
``NN_BACKENDS`` backend swaps the compute engine under every layer at
once; the default ``numpy`` backend is bitwise-identical to the
historically inlined operations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

# _im2col/_col2im stay importable from here (their historical home); the
# implementations now live beside the other reference kernels in backends.
from .backends import get_backend
from .backends import numpy_col2im as _col2im  # noqa: F401 - re-export
from .backends import numpy_im2col as _im2col  # noqa: F401 - re-export
from .initializers import glorot_uniform, he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Conv2D",
    "MaxPool2D",
]


class Layer(ABC):
    """Base class: a differentiable module with (possibly zero) parameters."""

    _input_grad = True

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.built = False

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape`` (sans batch); return output shape."""
        self.built = True
        return self.output_shape(input_shape)

    def reseed(self, rng: np.random.Generator) -> None:
        """Rebind any build-time generator (dropout masks) to ``rng``.

        The within-round training pool reseeds each scratch replica with
        the winner's derived stream before local training, so stochastic
        layers draw from the per-client stream rather than whichever
        generator the replica was built with.  Deterministic layers (the
        default) have nothing to rebind.
        """

    @abstractmethod
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the activation (sans batch) for a given input shape."""

    @abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ...

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        ...

    @property
    def n_parameters(self) -> int:
        return int(sum(p.size for p in self.params))


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, units: int, weight_init: str = "he"):
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = int(units)
        if weight_init not in ("he", "glorot"):
            raise ValueError("weight_init must be 'he' or 'glorot'")
        self.weight_init = weight_init

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        return (self.units,)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator):
        (fan_in,) = input_shape
        if self.weight_init == "he":
            w = he_normal(rng, (fan_in, self.units), fan_in)
        else:
            w = glorot_uniform(rng, (fan_in, self.units), fan_in, self.units)
        self.params = [w, zeros((self.units,))]
        self.grads = [np.zeros_like(p) for p in self.params]
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        w, b = self.params
        return get_backend().matmul(x, w) + b

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        w, _ = self.params
        backend = get_backend()
        self.grads[0][...] = backend.matmul(self._x.T, grad)
        self.grads[1][...] = grad.sum(axis=0)
        if not self._input_grad:
            return None
        return backend.matmul(grad, w.T)


class ReLU(Layer):
    """Rectified linear activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - self._y * self._y)


class Sigmoid(Layer):
    """Logistic activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._y * (1.0 - self._y)


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    Both paper CNNs interleave Dropout layers (footnotes 1-2); the layer
    draws its mask from a generator handed over at build time so runs are
    reproducible.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError("rate must lie in [0, 1)")
        self.rate = float(rate)
        self._rng: np.random.Generator | None = None

    def output_shape(self, input_shape):
        return input_shape

    def build(self, input_shape, rng):
        self._rng = rng
        return super().build(input_shape, rng)

    def reseed(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if self._rng is None:
            raise RuntimeError("Dropout used before build()")
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Conv2D(Layer):
    """2-D convolution over NHWC inputs via im2col + GEMM."""

    def __init__(self, filters: int, kernel_size: int = 3, stride: int = 1, padding: str = "valid"):
        super().__init__()
        if filters < 1 or kernel_size < 1 or stride < 1:
            raise ValueError("filters, kernel_size and stride must be >= 1")
        if padding not in ("valid", "same"):
            raise ValueError("padding must be 'valid' or 'same'")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding

    def _pad(self) -> int:
        if self.padding == "valid":
            return 0
        # 'same' for stride 1 / odd kernels; adequate for the paper's nets.
        return (self.kernel_size - 1) // 2

    def output_shape(self, input_shape):
        h, w, _ = input_shape
        k, s, p = self.kernel_size, self.stride, self._pad()
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {k} too large for input {input_shape}")
        return (oh, ow, self.filters)

    def build(self, input_shape, rng):
        h, w, c = input_shape
        k = self.kernel_size
        fan_in = k * k * c
        kernel = he_normal(rng, (fan_in, self.filters), fan_in)
        self.params = [kernel, zeros((self.filters,))]
        self.grads = [np.zeros_like(p) for p in self.params]
        self._in_channels = c
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self._pad()
        backend = get_backend()
        cols, (oh, ow) = backend.im2col(x, k, k, s, p)
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        kernel, bias = self.params
        out = backend.matmul(cols, kernel) + bias
        return out.reshape(x.shape[0], oh, ow, self.filters)

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        k, s, p = self.kernel_size, self.stride, self._pad()
        oh, ow = self._out_hw
        g = grad.reshape(-1, self.filters)
        kernel, _ = self.params
        backend = get_backend()
        self.grads[0][...] = backend.matmul(self._cols.T, g)
        self.grads[1][...] = g.sum(axis=0)
        if not self._input_grad:
            return None
        dcols = backend.matmul(g, kernel.T)
        return backend.col2im(dcols, self._x_shape, k, k, s, p, oh, ow)


class MaxPool2D(Layer):
    """Max pooling over NHWC inputs (non-overlapping windows by default)."""

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)

    def output_shape(self, input_shape):
        h, w, c = input_shape
        oh = (h - self.pool_size) // self.stride + 1
        ow = (w - self.pool_size) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"pool {self.pool_size} too large for input {input_shape}")
        return (oh, ow, c)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, h, w, c = x.shape
        k, s = self.pool_size, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        shape = (n, oh, ow, k, k, c)
        strides = (
            x.strides[0],
            x.strides[1] * s,
            x.strides[2] * s,
            x.strides[1],
            x.strides[2],
            x.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        flat = windows.reshape(n, oh, ow, k * k, c)
        self._argmax = flat.argmax(axis=3)
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        return flat.max(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k, s = self.pool_size, self.stride
        oh, ow = self._out_hw
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        # Route each output gradient to its window's argmax: one masked add
        # per in-window offset t, into the strided view of dx that offset
        # covers.  Windows that overlap (stride < pool) accumulate.
        for t in range(k * k):
            i, j = divmod(t, k)
            dx[:, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s] += np.where(
                self._argmax == t, grad, 0.0
            )
        return dx
