"""Tests for the central-DP extension (clip + noise inside the enclave)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import DpConfig, GradientPrivatizer, PrivacyLedger


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DpConfig(clip_norm=0)
    with pytest.raises(ConfigurationError):
        DpConfig(noise_multiplier=0)
    with pytest.raises(ConfigurationError):
        DpConfig(delta=1.0)


def test_clip_leaves_small_updates_alone(nprng):
    priv = GradientPrivatizer(DpConfig(clip_norm=10.0), nprng)
    update = np.array([0.3, -0.4])  # norm 0.5
    assert np.array_equal(priv.clip(update), update)


def test_clip_scales_large_updates_to_bound(nprng):
    priv = GradientPrivatizer(DpConfig(clip_norm=1.0), nprng)
    update = np.array([3.0, 4.0])  # norm 5
    clipped = priv.clip(update)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    # Direction preserved.
    assert np.allclose(clipped / np.linalg.norm(clipped), update / 5.0)


def test_clip_zero_update(nprng):
    priv = GradientPrivatizer(DpConfig(), nprng)
    assert np.array_equal(priv.clip(np.zeros(4)), np.zeros(4))


def test_privatize_adds_calibrated_noise():
    cfg = DpConfig(clip_norm=1.0, noise_multiplier=2.0)
    priv = GradientPrivatizer(cfg, np.random.default_rng(0))
    update = np.zeros(50_000)
    noised = priv.privatize(update)
    # Empirical std ~ sigma * C = 2.0.
    assert np.std(noised) == pytest.approx(2.0, rel=0.05)
    assert priv.ledger.steps == 1


def test_privatize_named_preserves_shapes_and_accounts_once(nprng):
    priv = GradientPrivatizer(DpConfig(), nprng)
    updates = {"conv/w": nprng.normal(size=(2, 3)), "dense/b": nprng.normal(size=(5,))}
    out = priv.privatize_named(updates)
    assert out["conv/w"].shape == (2, 3)
    assert out["dense/b"].shape == (5,)
    assert priv.ledger.steps == 1
    with pytest.raises(ConfigurationError):
        priv.privatize_named({})


def test_joint_clipping_over_named_updates():
    cfg = DpConfig(clip_norm=1.0, noise_multiplier=1e-9)  # ~no noise
    priv = GradientPrivatizer(cfg, np.random.default_rng(0))
    updates = {"a": np.array([3.0]), "b": np.array([4.0])}  # joint norm 5
    out = priv.privatize_named(updates)
    joint = np.concatenate([out["a"], out["b"]])
    assert np.linalg.norm(joint) == pytest.approx(1.0, rel=1e-3)


def test_ledger_composition():
    cfg = DpConfig(noise_multiplier=1.0, delta=1e-5)
    ledger = PrivacyLedger(cfg)
    assert ledger.epsilon_basic == 0.0
    for _ in range(100):
        ledger.record_release()
    eps_step = cfg.epsilon_per_step()
    assert ledger.epsilon_basic == pytest.approx(100 * eps_step)


def test_more_noise_means_lower_epsilon():
    quiet = DpConfig(noise_multiplier=0.5)
    loud = DpConfig(noise_multiplier=4.0)
    assert loud.epsilon_per_step() < quiet.epsilon_per_step()


def test_dp_on_top_of_masked_training(nprng):
    """The composition the paper suggests: DarKnight computes the aggregate
    privately; the enclave privatises it before release."""
    from repro.models import build_mini_vgg
    from repro.runtime import DarKnightBackend, DarKnightConfig

    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=nprng, width=8)
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=0))
    x = nprng.normal(size=(2, 3, 8, 8))
    net.forward(x, backend, training=True)
    net.backward(nprng.normal(size=(2, 4)) * 0.1, backend)
    raw_updates = {
        f"{layer.name}/{name}": grad
        for layer, _, _ in net.parameters()
        for name, grad in layer.grads.items()
    }
    priv = GradientPrivatizer(DpConfig(clip_norm=1.0, noise_multiplier=1.0), nprng)
    released = priv.privatize_named(raw_updates)
    assert set(released) == set(raw_updates)
    assert priv.ledger.steps == 1
    # The released updates are *not* the raw ones (noise was added).
    assert any(
        not np.allclose(released[k], raw_updates[k]) for k in released
    )
    backend.end_batch()
