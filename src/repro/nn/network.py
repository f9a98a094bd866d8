"""Sequential network container with backend-parameterised execution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import functional as F
from repro.nn.backends import LinearBackend, PlainBackend
from repro.nn.layers import (
    BranchJoin,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Layer,
    ResidualBlock,
)

#: Dependency index denoting the network's input batch.
PLAN_INPUT = -1


@dataclass(frozen=True)
class PlanStep:
    """One step of a network's execution plan.

    ``offloaded`` marks layers whose bilinear op goes through the backend
    seam — exactly the steps a staged backend can split into
    encode/dispatch/decode and overlap across virtual batches.  All other
    steps are TEE-resident and run as one local enclave task.

    ``depends_on`` holds the plan indices whose outputs feed this step
    (:data:`PLAN_INPUT` denotes the network input), making the plan an
    explicit DAG: a flattened ``ResidualBlock`` emits its body chain, its
    shortcut chain branching from the block entry, and a two-input
    :class:`~repro.nn.layers.BranchJoin` closing both.  ``None`` means the
    conventional linear edge (the previous step) — resolved by
    :attr:`deps`.
    """

    index: int
    layer: Layer
    offloaded: bool
    depends_on: tuple[int, ...] | None = None

    @property
    def name(self) -> str:
        """The layer's identity (also its backend key)."""
        return self.layer.name

    @property
    def deps(self) -> tuple[int, ...]:
        """Resolved dependency indices (linear edge when unspecified)."""
        if self.depends_on is not None:
            return self.depends_on
        return (self.index - 1,) if self.index > 0 else (PLAN_INPUT,)


class Sequential:
    """A stack of layers sharing one linear backend per call.

    Parameters
    ----------
    layers:
        Layers applied in order.
    input_shape:
        Per-sample input shape, e.g. ``(3, 32, 32)``; used to validate the
        stack eagerly so shape bugs surface at construction.

    Every layer built without a name is named here ``{kind}_{n}``, ``n``
    counting that kind's unnamed layers from 1 in :meth:`_walk_layers`
    order — the names, hence the :meth:`state_dict` keys, are the model's
    own and repeat in every identically built model.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]) -> None:
        if not layers:
            raise ConfigurationError("network needs at least one layer")
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self._plan_cache: list[PlanStep] | None = None
        counts: dict[str, int] = {}
        for layer in self._walk_layers():
            if not layer.name:
                kind = type(layer).__name__.lower()
                counts[kind] = counts.get(kind, 0) + 1
                layer.name = f"{kind}_{counts[kind]}"
        shape = self.input_shape
        self._shapes = [shape]
        for layer in layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    @property
    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample shape before each layer (and after the last)."""
        return list(self._shapes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[PlanStep]:
        """The layer walk as explicit, schedulable DAG steps.

        Backend-driven execution iterates this plan instead of an inline
        loop: :meth:`forward` replays every step in index order (a valid
        topological order — dependencies always point backwards), while
        :class:`repro.pipeline.PipelineExecutor` interleaves the offloaded
        steps' stages across in-flight virtual batches.

        Composite :class:`~repro.nn.layers.ResidualBlock` layers are
        *flattened*, recursively: the body chain, then the shortcut chain
        branching from the block's entry value, then a two-input
        :class:`~repro.nn.layers.BranchJoin` computing
        ``relu(body + shortcut)``.  Inner convolutions therefore become
        first-class offloaded steps (they pipeline and partition below
        block granularity), and the skip connection is an explicit
        ``depends_on`` edge a layer partitioner can cut across.  A block
        runs only as these steps; its ``backward`` reads the pre-activation
        the join leaves on it.
        """
        if getattr(self, "_plan_cache", None) is None:
            steps: list[PlanStep] = []

            def emit(layer: Layer, deps: tuple[int, ...]) -> int:
                steps.append(
                    PlanStep(
                        index=len(steps),
                        layer=layer,
                        offloaded=isinstance(layer, (Conv2D, Dense)),
                        depends_on=deps,
                    )
                )
                return len(steps) - 1

            def chain(layers: list[Layer], prev: int) -> int:
                for layer in layers:
                    if isinstance(layer, ResidualBlock):
                        body_out = chain(layer.body, prev)
                        skip_out = chain(layer.shortcut, prev)
                        prev = emit(layer.join_layer, (body_out, skip_out))
                    else:
                        prev = emit(layer, (prev,))
                return prev

            chain(self.layers, PLAN_INPUT)
            self._plan_cache = steps
        return list(self._plan_cache)

    def plan_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample output shape of every flattened plan step.

        Walks the DAG with symbolic shapes (``output_shape``), so cost
        models and layer partitioners can price each step — including the
        steps inside a flattened ``ResidualBlock`` — without running data.
        """
        plan = self.execution_plan()
        shapes: dict[int, tuple[int, ...]] = {PLAN_INPUT: self.input_shape}
        for step in plan:
            shapes[step.index] = step.layer.output_shape(shapes[step.deps[0]])
        return [shapes[step.index] for step in plan]

    def widest_sample_bytes(self) -> int:
        """The plan's widest per-sample float64 footprint: its largest step
        output or convolution unfold (``C_in*KH*KW*OH*OW``), in bytes."""
        plan = self.execution_plan()
        shapes = self.plan_shapes()
        widest = max(math.prod(shape) for shape in shapes)
        for step, shape in zip(plan, shapes):
            layer = step.layer
            if isinstance(layer, (Conv2D, DepthwiseConv2D)):
                dep = step.deps[0]
                c_in = (self.input_shape if dep == PLAN_INPUT else shapes[dep])[0]
                widest = max(widest, c_in * layer.kernel_size**2 * math.prod(shape[1:]))
        return 8 * widest

    def forward(
        self,
        x: np.ndarray,
        backend: LinearBackend | None = None,
        training: bool = True,
    ) -> np.ndarray:
        """Run the network synchronously; ``backend`` defaults to plain float.

        In inference mode (``training=False``) the plan runs one block of
        whole samples at a time, each block's output rows written into one
        result: a block holds as many samples as fit
        :data:`~repro.nn.functional.UNFOLD_BLOCK_BYTES` at
        :meth:`widest_sample_bytes` (cut by
        :func:`~repro.nn.functional.unfold_blocks`), so the forward's memory
        follows the block, not the batch.  A backend that masks samples
        together exposes ``virtual_batch_size``; its virtual batches are
        never split (a block is a whole number of them).  A batch that fits
        is one block — the whole-batch walk.  A training forward keeps every
        layer's cache for the backward pass and always runs whole.
        """
        backend = backend or PlainBackend()
        if tuple(x.shape[1:]) != self.input_shape:
            raise ConfigurationError(
                f"input shape {tuple(x.shape[1:])} != expected {self.input_shape}"
            )
        if training:
            return self._run_plan(x, backend, training)
        n, unit = x.shape[0], getattr(backend, "virtual_batch_size", 1)
        units = F.unfold_blocks(-(-n // unit), unit * self.widest_sample_bytes())
        blocks = [slice(b.start * unit, min(b.stop * unit, n)) for b in units]
        return F.by_blocks(blocks, lambda rows: self._run_plan(x[rows], backend, training))

    def _run_plan(
        self, x: np.ndarray, backend: LinearBackend, training: bool
    ) -> np.ndarray:
        """Replay every plan step on ``x``, dropping each value after its
        last use."""
        plan = self.execution_plan()
        last_use: dict[int, int] = {}
        for step in plan:
            for dep in step.deps:
                last_use[dep] = step.index
        values: dict[int, np.ndarray] = {PLAN_INPUT: x}
        for step in plan:
            if isinstance(step.layer, BranchJoin):
                a, b = (values[d] for d in step.deps)
                values[step.index] = step.layer.join(a, b, training)
            else:
                values[step.index] = step.layer.forward(
                    values[step.deps[0]], backend, training
                )
            for dep in step.deps:
                if last_use.get(dep) == step.index:
                    values.pop(dep, None)
        return values[plan[-1].index]

    def backward(self, grad_out: np.ndarray, backend: LinearBackend | None = None) -> None:
        """Back-propagate, filling every layer's ``grads``.

        Nothing reads the gradient of the network's input, so the first
        layer stops at its parameter gradients
        (:meth:`~repro.nn.layers.Layer.backward_params`).
        """
        backend = backend or PlainBackend()
        grad = grad_out
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad, backend)
        first.backward_params(grad, backend)

    def predict(self, x: np.ndarray, backend: LinearBackend | None = None) -> np.ndarray:
        """Inference-mode forward (no caches, BN uses running stats)."""
        return self.forward(x, backend, training=False)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def _walk_layers(self) -> Iterator[Layer]:
        stack = list(self.layers)
        while stack:
            layer = stack.pop(0)
            yield layer
            if isinstance(layer, ResidualBlock):
                stack = list(layer._walk()) + stack

    def parameters(self) -> Iterator[tuple[Layer, str, np.ndarray]]:
        """Yield ``(layer, param_name, array)`` for every trainable tensor."""
        for layer in self._walk_layers():
            for name, param in layer.params.items():
                yield layer, name, param

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters keyed ``layer_name/param_name``."""
        return {
            f"{layer.name}/{name}": param.copy()
            for layer, name, param in self.parameters()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for layer, name, param in self.parameters():
            key = f"{layer.name}/{name}"
            if key not in state:
                raise ConfigurationError(f"missing parameter {key!r} in state dict")
            if state[key].shape != param.shape:
                raise ConfigurationError(
                    f"shape mismatch for {key!r}: {state[key].shape} vs {param.shape}"
                )
            param[...] = state[key]
