"""The whole Figure-1 story in one session.

A data holder:

1. attests the cloud enclave (and refuses a wrong one);
2. uploads encrypted training data over the established channel;
3. the enclave trains privately via masked TEE+GPU offload — with a
   byzantine GPU in the pool, caught by the integrity share and benched by
   the recovery executor;
4. the trained model goes live behind the multi-tenant serving subsystem:
   many clients' single-sample requests are coalesced into virtual
   batches, each tenant attesting once and riding a cached session.

Run:  python examples/full_cloud_session.py [--seed N]
"""

import numpy as np

from repro.cli import parse_seed_flag
from repro.data import cifar_like
from repro.enclave import Enclave
from repro.errors import AttestationError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper, ShareLaunch
from repro.models import build_mini_vgg
from repro.quantization import QuantizationConfig
from repro.runtime import (
    ClientSession,
    DarKnightBackend,
    DarKnightConfig,
    RecoveringExecutor,
    Trainer,
)
from repro.serving import PrivateInferenceServer, ServingConfig, trace_from_arrays

SEED = parse_seed_flag(default=0)


def main() -> None:
    field = PrimeField()

    # --- 1. attestation -------------------------------------------------
    evil = Enclave(code_identity="trojaned-enclave", seed=SEED)
    try:
        ClientSession.connect(evil, expected_code_identity="darknight-enclave-v1")
        raise AssertionError("client accepted the wrong enclave!")
    except AttestationError as exc:
        print(f"client refused rogue enclave: {exc}")

    enclave = Enclave(code_identity="darknight-enclave-v1", seed=SEED + 1)
    session = ClientSession.connect(enclave)
    print("client attested the genuine enclave and opened a secure channel")

    # --- 2. encrypted provisioning --------------------------------------
    data = cifar_like(n_train=64, n_test=32, seed=SEED, size=8)
    x_train, y_train = session.provision(data.x_train, data.y_train)
    print(
        f"uploaded {x_train.shape[0]} samples;"
        f" {session.link.total_bytes:,} ciphertext bytes crossed the wire"
    )

    # --- 3. private training with a byzantine GPU in the pool -----------
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=SEED + 2)
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required + 1,  # one spare for recovery
        fault_injectors={3: RandomTamper(field, probability=1.0, seed=SEED + 3)},
    )

    # First, bench the liar with the recovery executor on a probe batch.
    executor = RecoveringExecutor(cluster, enclave.rng)
    cluster.broadcast_weights("probe_w", enclave.rng.uniform((192, 4)))
    quantizer = QuantizationConfig(field=field)
    probe = quantizer.quantize(x_train[:2].reshape(2, -1) / 4.0)
    _, report = executor.execute_forward(
        probe, k=2, m=1, launch=ShareLaunch("dense", "probe", weight_name="probe_w")
    )
    print(
        f"probe computation took {report.attempts} attempt(s);"
        f" quarantined GPUs: {list(executor.quarantined_devices)}"
    )

    # Train on the honest survivors.
    honest = GpuCluster(field, cfg.n_gpus_required)
    backend = DarKnightBackend(cfg, enclave=enclave, cluster=honest)
    net = build_mini_vgg(
        input_shape=data.input_shape, n_classes=10,
        rng=np.random.default_rng(SEED), width=8,
    )
    trainer = Trainer(net, backend, lr=0.08, momentum=0.9)
    history = trainer.fit(x_train, y_train, epochs=2, batch_size=16)
    print(f"private training: loss {history.loss[0]:.3f} -> {history.loss[-1]:.3f}")

    # --- 4. multi-tenant private serving --------------------------------
    # The trained model goes behind the serving subsystem: the test set
    # arrives as independent single-sample requests from three tenants,
    # coalesced back into virtual batches under a 10 ms deadline.
    serve_cfg = ServingConfig(
        darknight=DarKnightConfig(
            virtual_batch_size=4, integrity=True, seed=SEED + 4
        ),
        max_batch_wait=0.01,
    )
    server = PrivateInferenceServer(net, serve_cfg)
    trace = trace_from_arrays(
        data.x_test, tenants=["alice", "bob", "carol"], seed=SEED + 5
    )
    serving_report = server.serve_trace(trace)
    completed = serving_report.completed
    labels = {i: int(data.y_test[i]) for i in range(len(data.y_test))}
    hits = sum(1 for o in completed if o.prediction == labels[o.request_id])
    metrics = serving_report.metrics
    print(
        f"served {metrics.completed} inference requests to"
        f" {len(serving_report.tenants)} tenants in {metrics.batches}"
        " integrity-verified virtual batches"
        f" ({serving_report.handshakes} handshakes,"
        f" fill {metrics.batch_fill_ratio:.2f},"
        f" p99 {metrics.latency_percentile(99) * 1e3:.1f} ms)"
    )
    print(f"private test accuracy over the served trace: {hits / len(completed):.2f}")


if __name__ == "__main__":
    main()
