"""Two deployments run from two threads of one process do not interfere.

Every enclave-side field product (encode, decode, backward aggregate,
Freivalds) runs on a limb backend whose float64 workspace is written
mid-product.  Were that backend one per process, a second deployment's
thread would overwrite the first's temporaries: wrong logits without
integrity, and honest GPUs failing verification with it — in serving
and in training alike.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data import cifar_like
from repro.models import build_mini_resnet, build_mini_vgg
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

SEEDS = (1, 2)


def _serve(seed: int, integrity: bool, n_requests: int):
    net = build_mini_resnet(rng=np.random.default_rng(seed))
    config = ServingConfig(
        darknight=DarKnightConfig(virtual_batch_size=4, integrity=integrity, seed=seed)
    )
    server = PrivateInferenceServer(net, config)
    return server.serve_trace(synthetic_trace(n_requests, (3, 16, 16), seed=seed))


def _logits(report) -> dict[int, bytes]:
    return {o.request_id: o.logits.tobytes() for o in report.completed}


@pytest.mark.parametrize("integrity, n_requests", [(False, 160), (True, 40)])
def test_two_deployments_on_two_threads_serve_what_each_serves_alone(
    integrity, n_requests
):
    alone = [_serve(seed, integrity, n_requests) for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(
            pool.map(lambda seed: _serve(seed, integrity, n_requests), SEEDS)
        )
    for solo, threaded in zip(alone, together):
        assert threaded.metrics.integrity_failures == 0
        assert len(threaded.completed) == n_requests
        assert _logits(threaded) == _logits(solo)


def _train(seed: int):
    data = cifar_like(n_train=32, n_test=8, seed=seed, size=8)
    net = build_mini_vgg(
        input_shape=data.input_shape, n_classes=10,
        rng=np.random.default_rng(seed), width=8,
    )
    backend = DarKnightBackend(
        DarKnightConfig(virtual_batch_size=2, integrity=True, seed=seed)
    )
    history = Trainer(net, backend, lr=0.05).fit(
        data.x_train, data.y_train, epochs=2, batch_size=8
    )
    return history.loss, net.state_dict()


def test_two_private_trainers_on_two_threads_train_what_each_trains_alone():
    """Backward aggregation and Freivalds checks run on the enclave-side
    backend too: with integrity on, honest GPUs must verify, and each
    trainer must end on its single-thread losses and weights."""
    alone = [_train(seed) for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(_train, SEEDS))
    for (solo_loss, solo_state), (loss, state) in zip(alone, together):
        assert loss == solo_loss
        assert state.keys() == solo_state.keys()
        assert all(np.array_equal(state[k], solo_state[k]) for k in state)
