"""One harness per paper table/figure: workload, sweep, baseline, rows.

Each ``table*_rows`` / ``fig*_series`` function regenerates the content of
the corresponding exhibit in the paper's evaluation section, returning
structured data; :mod:`repro.reporting.exhibits` renders each beside the
paper's values.  Timing exhibits come from the calibrated
:class:`~repro.perf.costs.CostModel`; the accuracy figure (Fig. 4) actually
trains Mini models through the real masked runtime.
"""

from __future__ import annotations

import numpy as np

from repro.data import cifar_like
from repro.models import (
    build_mini_mobilenet,
    build_mini_resnet,
    build_mini_vgg,
    mobilenet_v1_spec,
    mobilenet_v2_spec,
    resnet50_spec,
    vgg16_spec,
)
from repro.nn import PlainBackend
from repro.perf.costs import BATCH_OVERHEAD, CostModel
from repro.perf.timeline import build_timeline
from repro.runtime import DarKnightConfig, Trainer
from repro.runtime.darknight import DarKnightBackend

#: The three training models of Tables 3-4 / Figs 3-5.
TRAINING_SPECS = {
    "VGG16": vgg16_spec,
    "ResNet50": resnet50_spec,
    "MobileNetV2": mobilenet_v2_spec,
}

#: GPUs of Table 4's non-private data-parallel baseline.
TABLE4_GPUS = 3

#: The virtual batch sizes each sweep exhibit evaluates.
FIG3_VIRTUAL_BATCHES = (2, 3, 4, 5)
FIG6B_VIRTUAL_BATCHES = (1, 2, 4, 6)

#: Concurrent SGX training threads of Fig. 7.
FIG7_THREADS = (1, 2, 3, 4)


# ----------------------------------------------------------------------
# Table 1 — GPU vs SGX speedup per operation class (VGG16, ImageNet)
# ----------------------------------------------------------------------
def table1_rows() -> list[dict]:
    """Rows: operation class x {forward, backward} GPU-over-SGX speedup."""
    cm = CostModel()
    spec = vgg16_spec()
    sgx, gpu = cm.system.sgx, cm.system.gpu
    rows = []
    for direction, backward in (("Forward Pass", False), ("Backward Propagation", True)):
        lin = cm.sgx_linear_time(spec, backward) / cm.gpu_linear_time(spec, backward)
        relu_ops = spec.elementwise_ops(frozenset({"relu"}))
        pool_ops = spec.elementwise_ops(frozenset({"maxpool"}))
        relu = (relu_ops / sgx.relu_rate(backward)) / (relu_ops / gpu.elementwise_ops_per_s)
        pool = (pool_ops / sgx.pool_rate(backward)) / (pool_ops / gpu.elementwise_ops_per_s)
        sgx_total = (
            cm.sgx_linear_time(spec, backward)
            + relu_ops / sgx.relu_rate(backward)
            + pool_ops / sgx.pool_rate(backward)
        )
        gpu_total = (
            cm.gpu_linear_time(spec, backward)
            + (relu_ops + pool_ops) / gpu.elementwise_ops_per_s
        )
        rows.append(
            {
                "operation": direction,
                "linear": lin,
                "maxpool": pool,
                "relu": relu,
                "total": sgx_total / gpu_total,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — qualitative comparison of prior techniques
# ----------------------------------------------------------------------
#: (method, training, inference, DP, MPC, HE, TEE, data-privacy,
#:  model-privacy-client, model-privacy-server, integrity, gpu-accel, large-DNNs)
TABLE2_FEATURES = [
    ("SecureNN", 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0),
    ("Chiron", 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0),
    ("MSP", 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0),
    ("Gazelle", 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1),
    ("MiniONN", 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1),
    ("CryptoNets", 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1),
    ("Slalom", 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1),
    ("Origami", 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1),
    ("Occlumency", 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1),
    ("Delphi", 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1),
    ("DarKnight", 1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1),
]

TABLE2_HEADERS = [
    "Method", "Training", "Inference", "DP", "MPC", "HE", "TEE",
    "Data Privacy", "Model Priv (Client)", "Model Priv (Server)",
    "Integrity", "GPU Accel", "Large DNNs",
]


def table2_rows() -> list[list[str]]:
    """The paper's feature matrix with •/◦ markers."""
    return [
        [row[0]] + ["•" if flag else "◦" for flag in row[1:]] for row in TABLE2_FEATURES
    ]


# ----------------------------------------------------------------------
# Table 3 — training time breakdown
# ----------------------------------------------------------------------
def table3_rows(virtual_batch: int = 2) -> list[dict]:
    """Fractions of training time per phase, DarKnight vs SGX baseline."""
    cm = CostModel()
    cfg = DarKnightConfig(virtual_batch_size=virtual_batch)
    rows = []
    for name, spec_fn in TRAINING_SPECS.items():
        spec = spec_fn()
        dk = cm.darknight_training(spec, cfg).fractions()
        bl = cm.sgx_baseline_training(spec).fractions()
        rows.append(
            {
                "model": name,
                "darknight": dk,
                "baseline": bl,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 4 — non-private GPU training speedups
# ----------------------------------------------------------------------
def table4_rows(virtual_batch: int = 2) -> list[dict]:
    """Non-private 3-GPU speedup over DarKnight and over SGX-only."""
    cm = CostModel()
    cfg = DarKnightConfig(virtual_batch_size=virtual_batch)
    rows = []
    for name, spec_fn in TRAINING_SPECS.items():
        spec = spec_fn()
        dk = cm.darknight_training(spec, cfg).total
        bl = cm.sgx_baseline_training(spec).total
        gp = cm.gpu_only_training(spec, TABLE4_GPUS)
        rows.append(
            {
                "model": name,
                "speedup_over_darknight": dk / gp,
                "speedup_over_sgx": bl / gp,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 3 — virtual batch size vs aggregation speedup
# ----------------------------------------------------------------------
def fig3_series(batch_size: int = 128) -> dict[str, dict[int, float]]:
    """Aggregation (decoding) speedup relative to K=1, per model."""
    cm = CostModel()
    series: dict[str, dict[int, float]] = {}
    for name, spec_fn in TRAINING_SPECS.items():
        spec = spec_fn()
        base = cm.aggregation_time(spec, 1, batch_size)
        series[name] = {
            k: base / cm.aggregation_time(spec, k, batch_size)
            for k in FIG3_VIRTUAL_BATCHES
        }
    return series


# ----------------------------------------------------------------------
# Fig. 4 — training accuracy, raw vs DarKnight (real masked training)
# ----------------------------------------------------------------------
MINI_BUILDERS = {
    "MiniVGG": build_mini_vgg,
    "MiniResNet": build_mini_resnet,
    "MiniMobileNet": build_mini_mobilenet,
}


def fig4_series(
    models: tuple[str, ...] = ("MiniVGG", "MiniResNet", "MiniMobileNet"),
    epochs: int = 3,
    n_train: int = 96,
    n_test: int = 48,
    batch_size: int = 16,
    virtual_batch: int = 2,
    image_size: int = 8,
    width: int = 8,
    seed: int = 0,
) -> dict[str, dict[str, list[float]]]:
    """Train each Mini model twice — plain float vs masked DarKnight —
    on identical synthetic CIFAR-like data and return accuracy curves.

    This is the one experiment that runs the *functional* masked pipeline
    rather than the cost model, reproducing Fig. 4's claim that encoding +
    quantization cost ~no accuracy (the curves should track each other).
    """
    data = cifar_like(n_train, n_test, seed=seed, size=image_size)
    results: dict[str, dict[str, list[float]]] = {}
    for model_name in models:
        builder = MINI_BUILDERS[model_name]
        curves: dict[str, list[float]] = {}
        for mode in ("raw", "darknight"):
            rng = np.random.default_rng(seed)  # identical init both runs
            net = builder(
                input_shape=data.input_shape, n_classes=data.n_classes,
                rng=rng, width=width,
            )
            if mode == "raw":
                backend = PlainBackend()
            else:
                backend = DarKnightBackend(
                    DarKnightConfig(virtual_batch_size=virtual_batch, seed=seed)
                )
            trainer = Trainer(net, backend, lr=0.08, momentum=0.9)
            history = trainer.fit(
                data.x_train,
                data.y_train,
                epochs=epochs,
                batch_size=batch_size,
                val_x=data.x_test,
                val_y=data.y_test,
                shuffle_seed=seed,
            )
            curves[mode] = history.val_accuracy
        results[model_name] = curves
    return results


# ----------------------------------------------------------------------
# Fig. 5 — training speedup, non-pipelined and pipelined
# ----------------------------------------------------------------------
def fig5_series(virtual_batch: int = 2) -> dict[str, dict[str, float]]:
    """Overall and linear-op speedups for both execution disciplines."""
    cm = CostModel()
    cfg = DarKnightConfig(virtual_batch_size=virtual_batch)
    series: dict[str, dict[str, float]] = {}
    for name, spec_fn in TRAINING_SPECS.items():
        spec = spec_fn()
        dk = cm.darknight_training(spec, cfg)
        bl = cm.sgx_baseline_training(spec)
        timeline = build_timeline(dk)
        sgx_linear = cm.sgx_linear_time(spec) + cm.sgx_linear_time(spec, backward=True)
        series[name] = {
            "non_pipelined": bl.total / timeline.non_pipelined,
            "pipelined": bl.total / timeline.pipelined,
            "linear_speedup_non_pipelined": sgx_linear
            / (dk.linear + dk.communication),
            "linear_speedup_pipelined": sgx_linear / dk.linear,
        }
    return series


# ----------------------------------------------------------------------
# Fig. 6(a) — inference speedup comparison (VGG16, MobileNetV1)
# ----------------------------------------------------------------------
def fig6a_series() -> dict[str, dict[str, float]]:
    """Speedup over the SGX-only baseline for five configurations."""
    cm = CostModel()
    series: dict[str, dict[str, float]] = {}
    for name, spec_fn in (("VGG16", vgg16_spec), ("MobileNetV1", mobilenet_v1_spec)):
        spec = spec_fn()
        base = cm.sgx_baseline_inference(spec).total
        series[name] = {
            "SGX": 1.0,
            "Slalom": base / cm.slalom_inference(spec).total,
            "DarKnight(4)": base
            / cm.darknight_inference(spec, DarKnightConfig(virtual_batch_size=4)).total,
            "Slalom+Integrity": base / cm.slalom_inference(spec, integrity=True).total,
            "DarKnight(3)+Integrity": base
            / cm.darknight_inference(
                spec, DarKnightConfig(virtual_batch_size=3, integrity=True)
            ).total,
        }
    return series


# ----------------------------------------------------------------------
# Fig. 6(b) — per-operation inference speedup vs virtual batch size
# ----------------------------------------------------------------------
def fig6b_series() -> dict[str, dict[int, float]]:
    """Unblinding/blinding/relu/maxpool/total speedup vs DarKnight(1), VGG16."""
    cm = CostModel()
    spec = vgg16_spec()
    sgx = cm.system.sgx

    def components(k: int) -> dict[str, float]:
        cfg = DarKnightConfig(virtual_batch_size=k)
        encode, decode = cm.encode_decode_times(spec, cfg)
        overflow = cm.epc_overflow_penalty(spec, k)
        relu = spec.elementwise_ops(frozenset({"relu"})) / sgx.relu_rate(True)
        pool = spec.elementwise_ops(frozenset({"maxpool"})) / sgx.pool_rate(True)
        batch_factor = 1.0 + BATCH_OVERHEAD / max(1, k)
        return {
            "Blinding": encode + overflow / 2,
            "Unblinding": decode + overflow / 2,
            "Relu": relu * batch_factor,
            "Maxpooling": pool * batch_factor,
            "Total": cm.darknight_inference(spec, cfg).total,
        }

    base = components(1)
    series: dict[str, dict[int, float]] = {op: {} for op in base}
    for k in FIG6B_VIRTUAL_BATCHES:
        comp = components(k)
        for op in base:
            series[op][k] = base[op] / comp[op]
    return series


# ----------------------------------------------------------------------
# Fig. 7 — SGX multithreading latency
# ----------------------------------------------------------------------
def fig7_series() -> dict[int, float]:
    """Per-batch training latency of t concurrent SGX threads, rel. t=1."""
    cm = CostModel()
    spec = vgg16_spec()
    base = cm.multithread_latency(spec, 1)
    return {t: cm.multithread_latency(spec, t) / base for t in FIG7_THREADS}


# ----------------------------------------------------------------------
# headline summary (abstract: 6.5x training, 12.5x inference averages)
# ----------------------------------------------------------------------
def headline_speedups() -> dict[str, float]:
    """Average training and inference speedups across evaluated models."""
    train = fig5_series()
    train_avg = float(np.mean([v["non_pipelined"] for v in train.values()]))
    inf = fig6a_series()
    inf_avg = float(
        np.mean([series["DarKnight(4)"] for series in inf.values()])
    )
    return {"training_speedup_avg": train_avg, "inference_speedup_avg": inf_avg}
