"""Private training: the paper's headline capability, reproduced end to end.

Trains the same Mini model twice on identical synthetic CIFAR-like data —
once on raw floats, once through the full DarKnight pipeline (quantize ->
mask -> simulated GPUs -> decode, aggregate-only weight updates) — and
prints the two accuracy curves side by side (the Fig. 4 experiment), plus
the Slalom counter-demonstration: the same training loop refuses to run on
a precomputed-blinding backend, and one weight update discards its whole
offline phase (Section 7.2).

Run:  python examples/private_training.py [--seed N]
"""

import numpy as np

from repro import DarKnightConfig, Trainer, build_mini_vgg
from repro.cli import parse_seed_flag
from repro.data import cifar_like
from repro.runtime import DarKnightBackend
from repro.slalom import SlalomBackend, SlalomTrainingError

SEED = parse_seed_flag(default=0)


def train(mode: str, data, seed: int = SEED) -> list[float]:
    """Train one model; returns per-epoch validation accuracy."""
    rng = np.random.default_rng(seed)  # identical init for both modes
    net = build_mini_vgg(input_shape=data.input_shape, n_classes=10, rng=rng, width=8)
    if mode == "raw":
        trainer = Trainer(net, lr=0.08, momentum=0.9)
    else:
        backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=seed))
        trainer = Trainer(net, backend, lr=0.08, momentum=0.9)
    history = trainer.fit(
        data.x_train,
        data.y_train,
        epochs=3,
        batch_size=16,
        val_x=data.x_test,
        val_y=data.y_test,
        shuffle_seed=seed,
    )
    return history.val_accuracy


def main() -> None:
    data = cifar_like(n_train=128, n_test=64, seed=SEED, size=8)
    print("training MiniVGG on raw floats...")
    raw = train("raw", data)
    print("training MiniVGG through DarKnight (masked TEE+GPU)...")
    dk = train("darknight", data)

    print("\nepoch | raw acc | darknight acc")
    for epoch, (a, b) in enumerate(zip(raw, dk), start=1):
        print(f"  {epoch}   |  {a:.3f}  |  {b:.3f}")
    print(f"final gap: {abs(raw[-1] - dk[-1]):.3f} (paper: < 0.01 at full scale)")

    # And the system Slalom cannot build: a training step on blinded offload.
    print("\nattempting the same training step under Slalom...")
    rng = np.random.default_rng(SEED)
    net = build_mini_vgg(input_shape=data.input_shape, n_classes=10, rng=rng, width=8)
    trainer = Trainer(net, SlalomBackend(), lr=0.08)
    try:
        trainer.train_step(data.x_train[:4], data.y_train[:4])
    except SlalomTrainingError as exc:
        print(f"refused, as the paper argues: {exc}")

    # Even inference pays for each weight update: every precomputed W·r is
    # stale, so the offline phase is discarded and runs again.
    backend = SlalomBackend()
    sealed = backend.enclave.ledger.op_counts
    net.forward(data.x_test[:4], backend, training=False)
    before = sealed["seal"]
    net.layers[0].params["w"] += 0.01
    net.forward(data.x_test[:4], backend, training=False)
    print(f"one weight update re-seals {sealed['seal'] - before} blinding blobs")


if __name__ == "__main__":
    main()
