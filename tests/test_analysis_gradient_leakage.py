"""Tests for the gradient-leakage analysis (Section 6's large-batch claim)."""

import pytest

from repro.analysis import gradient_leakage_curve, leakage_reduction
from repro.data import cifar_like
from repro.errors import ConfigurationError
from repro.models import build_mini_vgg


@pytest.fixture()
def setup(nprng):
    data = cifar_like(n_train=32, n_test=8, seed=0, size=8)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=nprng, width=8)
    return net, data


def test_single_sample_alignment_is_one(setup):
    net, data = setup
    points = gradient_leakage_curve(
        net, data.x_train, data.y_train, batch_sizes=(1,), seed=0
    )
    assert points[0].alignment == pytest.approx(1.0, abs=1e-9)


def test_alignment_decays_with_batch_size(setup):
    """The paper's mitigation, measured: bigger aggregates dilute any single
    sample's gradient signature."""
    net, data = setup
    points = gradient_leakage_curve(
        net, data.x_train, data.y_train, batch_sizes=(1, 4, 16), seed=0
    )
    alignments = [p.alignment for p in points]
    assert alignments[0] > alignments[1] > alignments[2]
    assert leakage_reduction(points) > 0.3


def test_batch_sizes_recorded(setup):
    net, data = setup
    points = gradient_leakage_curve(
        net, data.x_train, data.y_train, batch_sizes=(2, 8), seed=1
    )
    assert [p.batch_size for p in points] == [2, 8]
    assert all(0.0 <= p.alignment <= 1.0 + 1e-9 for p in points)


def test_validation(setup):
    net, data = setup
    with pytest.raises(ConfigurationError):
        gradient_leakage_curve(net, data.x_train, data.y_train, batch_sizes=(999,))
    with pytest.raises(ConfigurationError):
        leakage_reduction(
            gradient_leakage_curve(net, data.x_train, data.y_train, batch_sizes=(1,))
        )
