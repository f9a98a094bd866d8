"""Integration tests: the full DarKnight story on one stage.

These tests wire the real pieces together — enclave, masked backend, GPU
cluster with an adversary, Slalom comparison, sealed aggregation — the way
the examples and the paper's Section 3.1 flow describe.
"""

import numpy as np
import pytest

from repro.data import cifar_like
from repro.errors import IntegrityError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper, TargetedTamper
from repro.models import build_mini_resnet, build_mini_vgg
from repro.nn import PlainBackend
from repro.pipeline import PipelineExecutor
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.slalom import SlalomBackend, SlalomTrainingError


def test_private_training_then_private_inference(nprng):
    """Train privately, infer privately with integrity, match plain preds."""
    data = cifar_like(n_train=32, n_test=12, seed=0, size=8)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=nprng, width=8)
    cfg = DarKnightConfig(virtual_batch_size=2, seed=0)
    trainer = Trainer(net, DarKnightBackend(cfg), lr=0.08, momentum=0.9)
    history = trainer.fit(data.x_train, data.y_train, epochs=2, batch_size=8)
    assert history.loss[-1] < history.loss[0]

    executor = PipelineExecutor(
        net, DarKnightBackend(DarKnightConfig(virtual_batch_size=2, integrity=True, seed=1))
    )
    private_preds = np.argmax(executor.run(data.x_test[:6]).output, axis=1)
    plain_preds = np.argmax(net.predict(data.x_test[:6], PlainBackend()), axis=1)
    assert np.mean(private_preds == plain_preds) >= 0.8


def test_malicious_gpu_cannot_corrupt_training_silently(nprng):
    """With integrity on, a tampering GPU aborts the step instead of
    poisoning the model (the paper's sabotage scenario)."""
    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=0)
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            2: TargetedTamper(
                RandomTamper(field, probability=1.0, seed=1), "backward_equation_dense"
            )
        },
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=nprng, width=8)
    trainer = Trainer(net, backend, lr=0.05)
    x = nprng.normal(size=(4, 3, 8, 8))
    y = nprng.integers(0, 4, 4)
    with pytest.raises(IntegrityError):
        trainer.train_step(x, y)


def test_batchnorm_model_trains_privately(nprng):
    """The ResNet family (BN inside the TEE) works through the masked path."""
    data = cifar_like(n_train=16, n_test=8, seed=2, size=8)
    net = build_mini_resnet(input_shape=(3, 8, 8), n_classes=10, rng=nprng, width=8)
    trainer = Trainer(
        net,
        DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=3)),
        lr=0.05,
    )
    losses = [trainer.train_step(data.x_train, data.y_train) for _ in range(3)]
    assert losses[-1] < losses[0] * 1.5  # moving, not diverging


def test_darknight_trains_where_slalom_cannot(nprng):
    """The paper's core comparison, executed: same model, same data —
    DarKnight completes a training step, Slalom refuses."""
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=nprng, width=8)
    x = nprng.normal(size=(2, 3, 8, 8))
    y = nprng.integers(0, 4, 2)

    dk_trainer = Trainer(
        net, DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=0)), lr=0.01
    )
    dk_trainer.train_step(x, y)  # works

    slalom_trainer = Trainer(net, SlalomBackend(), lr=0.01)
    with pytest.raises(SlalomTrainingError):
        slalom_trainer.train_step(x, y)


def test_both_systems_agree_on_inference(nprng):
    """DarKnight and Slalom produce the same (quantized) inference results."""
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=nprng, width=8)
    x = nprng.normal(size=(2, 3, 8, 8))
    out_dk = net.forward(
        x, DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=0)), training=False
    )
    out_slalom = net.forward(x, SlalomBackend(), training=False)
    out_plain = net.forward(x, PlainBackend(), training=False)
    assert np.max(np.abs(out_dk - out_plain)) < 0.15
    assert np.max(np.abs(out_slalom - out_plain)) < 0.15


def test_quantization_noise_bounded_over_deep_stack(nprng):
    """Accumulated fixed-point error through conv+dense stays bounded."""
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=nprng, width=8)
    x = nprng.normal(size=(4, 3, 8, 8))
    out_dk = net.forward(
        x, DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=0)), training=False
    )
    out_plain = net.forward(x, PlainBackend(), training=False)
    rel = np.max(np.abs(out_dk - out_plain)) / (np.max(np.abs(out_plain)) + 1e-9)
    assert rel < 0.25
