"""Ablation: the price of integrity verification (Section 4.4).

The paper reports integrity via one redundant equation and shows its effect
only in Fig. 6a's inference bars.  This ablation isolates it for training
and inference across all three models, and cross-checks the model against
the *functional* runtime: exact GPU MAC counts with and without the
redundant share on a Mini model, the wall-clock price of a verified forward
pass (printed, not asserted — wall clocks wander), and the deterministic
counts behind it (asserted, so the exhibit cannot drift from the verifier).
"""

import time
from contextlib import contextmanager

import numpy as np
from conftest import show

from repro.masking import CoefficientSet, ForwardDecoder, IntegrityVerifier
from repro.models import build_mini_vgg, mobilenet_v2_spec, resnet50_spec, vgg16_spec
from repro.perf import CostModel
from repro.reporting import render_table
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer

SPECS = {"VGG16": vgg16_spec, "ResNet50": resnet50_spec, "MobileNetV2": mobilenet_v2_spec}


def _model_overheads():
    cm = CostModel()
    rows = []
    for name, spec_fn in SPECS.items():
        spec = spec_fn()
        for workload in ("training", "inference"):
            if workload == "training":
                plain = cm.darknight_training(spec, DarKnightConfig(virtual_batch_size=3)).total
                verified = cm.darknight_training(
                    spec, DarKnightConfig(virtual_batch_size=3, integrity=True)
                ).total
            else:
                plain = cm.darknight_inference(spec, DarKnightConfig(virtual_batch_size=3)).total
                verified = cm.darknight_inference(
                    spec, DarKnightConfig(virtual_batch_size=3, integrity=True)
                ).total
            rows.append(
                {"model": name, "workload": workload, "overhead": verified / plain}
            )
    return rows


def _functional_mac_overhead() -> float:
    """Exact extra GPU work from the redundant share, measured by ledger."""
    macs = {}
    for integrity in (False, True):
        rng = np.random.default_rng(0)
        net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=rng, width=8)
        backend = DarKnightBackend(
            DarKnightConfig(virtual_batch_size=2, integrity=integrity, seed=0)
        )
        trainer = Trainer(net, backend, lr=0.01)
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.integers(0, 4, 2)
        trainer.train_step(x, y)
        macs[integrity] = backend.cluster.total_mac_ops()
    return macs[True] / macs[False]


@contextmanager
def _counting(*targets):
    """Count calls of ``(owner, attr)`` callables for the enclosed work."""
    calls = {attr: 0 for _, attr in targets}
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr, fn in originals:
        setattr(owner, attr, counted(attr, fn))
    try:
        yield calls
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _functional_forward(integrity: bool, rounds: int) -> tuple[float, dict]:
    """Best-of-``rounds`` wall seconds of a MiniVGG forward under reused
    coefficients (the serving regime), plus one counted pass."""
    rng = np.random.default_rng(0)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=4, rng=rng, width=8)
    backend = DarKnightBackend(
        DarKnightConfig(
            virtual_batch_size=4, integrity=integrity, seed=0, fresh_coefficients=False
        )
    )
    x = rng.normal(size=(8, 3, 8, 8))

    def forward():
        net.forward(x, backend)
        backend.end_batch()

    forward()  # warm-up: coefficients generated, subsets inverted, plan cached
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        forward()
        best = min(best, time.perf_counter() - start)
    with _counting(
        (IntegrityVerifier, "verify_forward"),
        (ForwardDecoder, "decode"),
        (CoefficientSet, "iter_decoding_subsets"),
    ) as calls:
        forward()
    return best, calls


def test_ablation_integrity_overhead(benchmark, capsys, quick):
    rows = benchmark(_model_overheads)
    mac_ratio = _functional_mac_overhead()
    rounds = 3 if quick else 7
    plain_s, plain_calls = _functional_forward(False, rounds)
    verified_s, calls = _functional_forward(True, rounds)
    show(
        capsys,
        render_table(
            ["Model", "Workload", "time w/ integrity vs without"],
            [[r["model"], r["workload"], f"{r['overhead']:.3f}x"] for r in rows],
            title="Ablation — integrity verification overhead (cost model, K=3)",
        )
        + f"\nfunctional cross-check (MiniVGG, exact GPU MACs): {mac_ratio:.2f}x"
        + f"\nfunctional wall clock (MiniVGG forward, K=4, best of {rounds}):"
        f" {verified_s * 1e3:.2f} ms with integrity / {plain_s * 1e3:.2f} ms without"
        f" = {verified_s / plain_s:.2f}x"
        f" ({calls['decode']} decodes for {calls['verify_forward']} verifies,"
        f" {calls['iter_decoding_subsets']} subset enumerations)",
    )
    for r in rows:
        assert 1.0 < r["overhead"] < 2.2, r
    # The redundant share + second Eq pass lands well under triple work.
    assert 1.1 < mac_ratio < 3.0
    # Detection is two decodes from a cached cover of all shares, the first
    # of which is the served result; enumeration is for localisation only.
    assert calls["verify_forward"] > 0
    assert calls["decode"] == 2 * calls["verify_forward"]
    assert calls["iter_decoding_subsets"] == 0
    assert plain_calls["verify_forward"] == 0 and plain_calls["decode"] > 0
