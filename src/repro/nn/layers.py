"""Neural-network layers over the pluggable linear backend.

Linear layers (:class:`Conv2D`, :class:`Dense`) route their bilinear ops
through the backend — that's the DarKnight offload seam.  Non-linear layers
(:class:`ReLU`, :class:`MaxPool2D`, :class:`BatchNorm2D`, ...) always compute
locally: in the real system they run inside the TEE.

Every layer follows the same contract: ``forward`` caches whatever its
``backward`` needs, ``backward`` fills ``self.grads`` for parameters and
returns the gradient with respect to its input.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import functional as F
from repro.nn.backends import LinearBackend
from repro.nn.initializers import he_normal, xavier_uniform, zeros

#: Added to the batch variance before its square root.
BN_EPS = 1e-5


class Layer:
    """Base layer: parameter/grad dicts plus the forward/backward contract.

    A layer built without a ``name`` is named by the model it joins
    (:class:`~repro.nn.network.Sequential`), so two identically built
    models carry identical names.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, backend: LinearBackend, training: bool = True):
        """Compute the layer output (caching backward state)."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, backend: LinearBackend) -> np.ndarray:
        """Fill ``self.grads`` and return the input gradient."""
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray, backend: LinearBackend) -> None:
        """Fill ``self.grads`` only, for a network's first layer, whose input
        gradient nothing reads; a layer that can skip computing it
        overrides this."""
        self.backward(grad_out, backend)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape for a per-sample input shape."""
        raise NotImplementedError


class Conv2D(Layer):
    """2-D convolution, bilinear ops delegated to the backend."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        pad: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if min(in_channels, out_channels, kernel_size, stride) < 1 or pad < 0:
            raise ConfigurationError("invalid Conv2D geometry")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        self.params["w"] = he_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        if bias:
            self.params["b"] = zeros((out_channels,))
        self._x: np.ndarray | None = None

    def forward(self, x, backend, training=True):
        self._x = x if training else None
        return backend.conv2d_forward(
            x,
            self.params["w"],
            self.params.get("b"),
            self.stride,
            self.pad,
            key=self.name,
        )

    def backward(self, grad_out, backend):
        self.backward_params(grad_out, backend)
        return backend.conv2d_grad_x(
            self.params["w"], grad_out, self._x.shape, self.stride, self.pad, key=self.name
        )

    def backward_params(self, grad_out, backend):
        """Fill ``self.grads`` without the input gradient (a float GEMM and
        a ``col2im`` on GPU 0)."""
        x = self._x
        if x is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        k = self.kernel_size
        self.grads["w"] = backend.conv2d_grad_w(
            x, grad_out, k, k, self.stride, self.pad, key=self.name
        )
        if "b" in self.params:
            self.grads["b"] = grad_out.sum(axis=(0, 2, 3))

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.in_channels:
            raise ConfigurationError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.pad)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.pad)
        return (self.out_channels, oh, ow)


class DepthwiseConv2D(Layer):
    """Depthwise convolution (MobileNet's cheap spatial stage).

    Stays float-local: its fan-in is ``KH*KW`` (tiny), so the paper's
    MobileNet results treat it as part of the reduced linear workload.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        pad: int = 1,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if min(channels, kernel_size, stride) < 1 or pad < 0:
            raise ConfigurationError("invalid DepthwiseConv2D geometry")
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.params["w"] = he_normal(
            (channels, kernel_size, kernel_size), kernel_size * kernel_size, rng
        )
        self._x: np.ndarray | None = None

    def forward(self, x, backend, training=True):
        self._x = x if training else None
        return F.depthwise_conv2d(x, self.params["w"], self.stride, self.pad)

    def backward(self, grad_out, backend):
        x = self._x
        if x is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        k = self.kernel_size
        self.grads["w"] = F.depthwise_conv2d_grad_w(x, grad_out, k, k, self.stride, self.pad)
        return F.depthwise_conv2d_grad_x(
            self.params["w"], grad_out, x.shape, self.stride, self.pad
        )

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.channels:
            raise ConfigurationError(
                f"{self.name}: expected {self.channels} channels, got {c}"
            )
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.pad)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.pad)
        return (c, oh, ow)


class Dense(Layer):
    """Fully-connected layer over the backend seam."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if min(in_features, out_features) < 1:
            raise ConfigurationError("invalid Dense geometry")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.params["w"] = xavier_uniform(
            (in_features, out_features), in_features, out_features, rng
        )
        if bias:
            self.params["b"] = zeros((out_features,))
        self._x: np.ndarray | None = None

    def forward(self, x, backend, training=True):
        self._x = x if training else None
        return backend.dense_forward(x, self.params["w"], self.params.get("b"), key=self.name)

    def backward(self, grad_out, backend):
        self.backward_params(grad_out, backend)
        return backend.dense_grad_x(self.params["w"], grad_out, key=self.name)

    def backward_params(self, grad_out, backend):
        """Fill ``self.grads`` only (see :meth:`Conv2D.backward_params`)."""
        x = self._x
        if x is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        self.grads["w"] = backend.dense_grad_w(x, grad_out, key=self.name)
        if "b" in self.params:
            self.grads["b"] = grad_out.sum(axis=0)

    def output_shape(self, input_shape):
        if len(input_shape) != 1:
            raise ConfigurationError(
                f"{self.name}: expected flat input, got shape {input_shape};"
                " add a Flatten layer first"
            )
        (features,) = input_shape
        if features != self.in_features:
            raise ConfigurationError(
                f"{self.name}: expected {self.in_features} features, got {features}"
            )
        return (self.out_features,)


class ReLU(Layer):
    """Rectifier — a TEE-resident non-linear op in DarKnight."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._x: np.ndarray | None = None

    def forward(self, x, backend, training=True):
        self._x = x if training else None
        return F.relu(x)

    def backward(self, grad_out, backend):
        if self._x is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        return F.relu_grad(self._x, grad_out)

    def output_shape(self, input_shape):
        return input_shape


class MaxPool2D(Layer):
    """Max pooling — TEE-resident."""

    def __init__(self, size: int = 2, stride: int | None = None, name: str | None = None):
        super().__init__(name)
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.stride = stride or size
        self._argmax = None
        self._x_shape = None

    def forward(self, x, backend, training=True):
        out, argmax = F.maxpool2d(x, self.size, self.stride)
        if training:
            self._argmax, self._x_shape = argmax, x.shape
        return out

    def backward(self, grad_out, backend):
        if self._argmax is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        return F.maxpool2d_grad(grad_out, self._argmax, self._x_shape, self.size, self.stride)

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oh = F.conv_output_size(h, self.size, self.stride, 0)
        ow = F.conv_output_size(w, self.size, self.stride, 0)
        return (c, oh, ow)


class GlobalAvgPool(Layer):
    """Spatial mean over each channel — TEE-resident."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._x_shape = None

    def forward(self, x, backend, training=True):
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out, backend):
        if self._x_shape is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_out.reshape(n, c, 1, 1) / (h * w), self._x_shape
        ).copy()

    def output_shape(self, input_shape):
        c, _, _ = input_shape
        return (c,)


class Flatten(Layer):
    """Reshape ``(N, C, H, W)`` to ``(N, C*H*W)``."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._x_shape = None

    def forward(self, x, backend, training=True):
        if training:
            self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, backend):
        if self._x_shape is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        return grad_out.reshape(self._x_shape)

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)


class BatchNorm2D(Layer):
    """Per-channel batch normalisation — the compute-heavy TEE op.

    The paper singles BN out as the non-linear operation that keeps
    ResNet/MobileNet from enjoying VGG-sized speedups (Table 3), because it
    must run inside the enclave.
    """

    def __init__(
        self,
        channels: int,
        momentum: float = 0.9,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {channels}")
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1), got {momentum}")
        self.channels = channels
        self.momentum = momentum
        self.params["gamma"] = np.ones((channels,))
        self.params["beta"] = np.zeros((channels,))
        self.running_mean = np.zeros((channels,))
        self.running_var = np.ones((channels,))
        self._cache = None

    def forward(self, x, backend, training=True):
        gamma = self.params["gamma"].reshape(1, -1, 1, 1)
        beta = self.params["beta"].reshape(1, -1, 1, 1)
        if not training:
            # The same elementwise ops in the same order, into one buffer.
            std = np.sqrt(self.running_var + BN_EPS)
            out = x - self.running_mean.reshape(1, -1, 1, 1)
            out /= std.reshape(1, -1, 1, 1)
            out *= gamma
            out += beta
            return out
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        std = np.sqrt(var + BN_EPS)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) / std.reshape(1, -1, 1, 1)
        self._cache = (x_hat, std)
        return gamma * x_hat + beta

    def backward(self, grad_out, backend):
        if self._cache is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        x_hat, std = self._cache
        n = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        self.grads["gamma"] = (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.grads["beta"] = grad_out.sum(axis=(0, 2, 3))
        gamma = self.params["gamma"].reshape(1, -1, 1, 1)
        grad_xhat = grad_out * gamma
        mean_grad = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
        mean_grad_xhat = (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        del n
        return (grad_xhat - mean_grad - x_hat * mean_grad_xhat) / std.reshape(1, -1, 1, 1)

    def output_shape(self, input_shape):
        c = input_shape[0]
        if c != self.channels:
            raise ConfigurationError(
                f"{self.name}: expected {self.channels} channels, got {c}"
            )
        return input_shape


class ResidualBlock(Layer):
    """``relu(body(x) + shortcut(x))`` — the ResNet family's building block.

    ``shortcut`` defaults to identity; pass a projection (1x1 conv + BN)
    when the body changes shape.  A :class:`~repro.nn.network.Sequential`
    runs the block flattened (body, shortcut, :class:`BranchJoin`), so it
    has no ``forward`` of its own.
    """

    def __init__(
        self,
        body: list[Layer],
        shortcut: list[Layer] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if not body:
            raise ConfigurationError("residual body cannot be empty")
        self.body = body
        self.shortcut = shortcut or []
        self._pre_relu: np.ndarray | None = None

    def backward(self, grad_out, backend):
        if self._pre_relu is None:
            raise ConfigurationError(f"{self.name}: backward before training forward")
        grad = F.relu_grad(self._pre_relu, grad_out)
        grad_body = grad
        for layer in reversed(self.body):
            grad_body = layer.backward(grad_body, backend)
        grad_skip = grad
        for layer in reversed(self.shortcut):
            grad_skip = layer.backward(grad_skip, backend)
        return grad_body + grad_skip

    def output_shape(self, input_shape):
        shape = input_shape
        for layer in self.body:
            shape = layer.output_shape(shape)
        skip_shape = input_shape
        for layer in self.shortcut:
            skip_shape = layer.output_shape(skip_shape)
        if shape != skip_shape:
            raise ConfigurationError(
                f"{self.name}: body {shape} and shortcut {skip_shape} disagree"
            )
        return shape

    def _walk(self):
        yield from self.body
        yield from self.shortcut

    @property
    def join_layer(self) -> "BranchJoin":
        """The block's DAG join step, created once so its name is stable."""
        if getattr(self, "_join_layer", None) is None:
            self._join_layer = BranchJoin(self)
        return self._join_layer


class BranchJoin(Layer):
    """Explicit DAG join closing a :class:`ResidualBlock`'s two branches.

    A flattened execution plan replaces the block's implicit
    ``relu(body(x) + shortcut(x))`` with body steps, shortcut steps, and
    this two-input step computing ``relu(a + b)`` — the skip connection
    becomes an explicit edge (``PlanStep.depends_on``) a scheduler or a
    layer partitioner can cut across.  The join writes the pre-activation
    back onto its parent block so the block's unflattened ``backward``
    keeps working after a training forward replayed through the plan.
    """

    def __init__(self, block: ResidualBlock, name: str | None = None) -> None:
        super().__init__(name or f"{block.name}/join")
        self.block = block

    def join(self, body_out, skip, training: bool = False):
        """``relu(body_out + skip)`` — the block's merge, bit-identical."""
        if body_out.shape != skip.shape:
            raise ConfigurationError(
                f"{self.name}: body {body_out.shape} and shortcut"
                f" {skip.shape} disagree"
            )
        pre = body_out + skip
        if training:
            self.block._pre_relu = pre
        return F.relu(pre)

    def forward(self, x, backend, training=True):
        raise ConfigurationError(
            f"{self.name}: BranchJoin takes two inputs; drive it via join()"
            " from a DAG plan replay"
        )

    def backward(self, grad_out, backend):
        raise ConfigurationError(
            f"{self.name}: backward runs through the owning ResidualBlock"
        )

    def output_shape(self, input_shape):
        return input_shape
