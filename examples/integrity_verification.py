"""Integrity verification: catching a malicious GPU in the act.

Section 4.4: with one redundant encoded share (K' = K + M + 1 GPUs), every
result is recoverable from two distinct share subsets, so a GPU that
tampers with its computation produces inconsistent decodes and is detected.
This example runs private inference twice — once against honest GPUs, once
with a byzantine device injected — and shows the verifier firing, plus
Slalom's Freivalds-based alternative on the same tampered product.

Run:  python examples/integrity_verification.py [--seed N]
"""

import numpy as np

from repro.cli import parse_seed_flag
from repro.errors import IntegrityError
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.gpu import GpuCluster, RandomTamper
from repro.models import build_mini_vgg
from repro.pipeline import PipelineExecutor
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.slalom import freivalds_check

SEED = parse_seed_flag(default=0)


def darknight_detection() -> None:
    rng = np.random.default_rng(SEED)
    net = build_mini_vgg(input_shape=(3, 8, 8), n_classes=10, rng=rng, width=8)
    x = rng.normal(size=(2, 3, 8, 8))
    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=SEED + 1)

    print(f"cluster: {cfg.n_gpus_required} GPUs (K=2 inputs + M=1 noise + 1 redundant)")
    honest = PipelineExecutor(net, DarKnightBackend(cfg))
    print("honest GPUs  ->", np.argmax(honest.run(x).output, axis=1))

    byzantine = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={1: RandomTamper(field, probability=1.0, seed=SEED + 2)},
    )
    executor = PipelineExecutor(net, DarKnightBackend(cfg, cluster=byzantine))
    try:
        executor.run(x)
        raise AssertionError("tampering went undetected!")
    except IntegrityError as exc:
        print(f"byzantine GPU -> detected: {exc}")


def freivalds_comparison() -> None:
    """Slalom's check on the same class of tamper: a forged matrix product."""
    field = PrimeField()
    rng = FieldRng(field, seed=SEED + 3)
    w = rng.uniform((64, 128))
    x = rng.uniform((128, 32))
    honest = field_matmul(field, w, x)
    forged = honest.copy()
    forged[5, 7] = field.add(forged[5, 7], 1)
    print("\nFreivalds (Slalom's verifier) on the same forged product:")
    print("  honest product verifies:", freivalds_check(field, w, x, honest, rng))
    print("  forged product verifies:", freivalds_check(field, w, x, forged, rng, trials=3))


if __name__ == "__main__":
    darknight_detection()
    freivalds_comparison()
