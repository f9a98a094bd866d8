"""Tests pinning the cost model to the paper's measured shapes."""

import pytest

from repro.errors import ConfigurationError
from repro.models import mobilenet_v2_spec, resnet50_spec, vgg16_spec
from repro.perf import (
    DEFAULT_SYSTEM,
    CostModel,
    GpuProfile,
    PhaseBreakdown,
    SgxProfile,
    kernel_efficiency,
)
from repro.perf.devices import BYTES_PER_ELEMENT
from repro.runtime import DarKnightConfig


@pytest.fixture(scope="module")
def cm():
    return CostModel()


@pytest.fixture(scope="module")
def vgg():
    return vgg16_spec()


# ----------------------------------------------------------------------
# Table 1 calibration anchors
# ----------------------------------------------------------------------
def test_table1_forward_linear_ratio(cm, vgg):
    ratio = cm.sgx_linear_time(vgg) / cm.gpu_linear_time(vgg)
    assert ratio == pytest.approx(126.85, rel=0.02)


def test_table1_backward_linear_ratio(cm, vgg):
    ratio = cm.sgx_linear_time(vgg, backward=True) / cm.gpu_linear_time(
        vgg, backward=True
    )
    assert ratio == pytest.approx(149.13, rel=0.02)


def test_table1_relu_ratios(cm, vgg):
    sgx, gpu = cm.system.sgx, cm.system.gpu
    fwd = gpu.elementwise_ops_per_s / sgx.relu_rate(resident=False)
    bwd = gpu.elementwise_ops_per_s / sgx.relu_rate(resident=True)
    assert fwd == pytest.approx(119.60, rel=0.02)
    assert bwd == pytest.approx(6.59, rel=0.02)


def test_table1_maxpool_ratios(cm, vgg):
    sgx, gpu = cm.system.sgx, cm.system.gpu
    assert gpu.elementwise_ops_per_s / sgx.pool_rate(False) == pytest.approx(11.86, rel=0.02)
    assert gpu.elementwise_ops_per_s / sgx.pool_rate(True) == pytest.approx(5.47, rel=0.02)


# ----------------------------------------------------------------------
# predicted shapes
# ----------------------------------------------------------------------
def test_breakdown_fractions_sum_to_one(cm, vgg):
    dk = cm.darknight_training(vgg, DarKnightConfig(virtual_batch_size=2))
    assert sum(dk.fractions().values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in dk.fractions().values())


def test_training_speedup_ordering_matches_paper(cm):
    """VGG > ResNet > MobileNet, within sane factors of 8x / 4.2x / 2.2x."""
    cfg = DarKnightConfig(virtual_batch_size=2)
    speedups = {}
    for name, spec in [
        ("vgg", vgg16_spec()),
        ("resnet", resnet50_spec()),
        ("mobilenet", mobilenet_v2_spec()),
    ]:
        dk = cm.darknight_training(spec, cfg).total
        bl = cm.sgx_baseline_training(spec).total
        speedups[name] = bl / dk
    assert speedups["vgg"] > speedups["resnet"] > speedups["mobilenet"] > 1.5
    assert speedups["vgg"] == pytest.approx(8.0, rel=0.5)
    assert speedups["resnet"] == pytest.approx(4.2, rel=0.35)
    assert speedups["mobilenet"] == pytest.approx(2.2, rel=0.35)


def test_resnet_is_nonlinear_dominated(cm):
    dk = cm.darknight_training(resnet50_spec(), DarKnightConfig(virtual_batch_size=2))
    fr = dk.fractions()
    assert fr["nonlinear"] > 0.5  # the paper's 0.75
    assert fr["linear"] < 0.1


def test_baseline_is_linear_dominated_for_vgg(cm, vgg):
    bl = cm.sgx_baseline_training(vgg)
    assert bl.fractions()["linear"] > 0.7  # paper: 0.84


def test_gpu_only_upper_bound(cm, vgg):
    gp = cm.gpu_only_training(vgg, 3)
    dk = cm.darknight_training(vgg, DarKnightConfig(virtual_batch_size=2)).total
    bl = cm.sgx_baseline_training(vgg).total
    assert gp < dk < bl
    assert bl / gp > 100  # paper: 273x
    with pytest.raises(ConfigurationError):
        cm.gpu_only_training(vgg, 0)


def test_inference_ordering_matches_fig6a(cm, vgg):
    base = cm.sgx_baseline_inference(vgg).total
    slalom = cm.slalom_inference(vgg).total
    slalom_i = cm.slalom_inference(vgg, integrity=True).total
    dk4 = cm.darknight_inference(vgg, DarKnightConfig(virtual_batch_size=4)).total
    assert dk4 < slalom < slalom_i < base  # DarKnight wins, integrity costs


def test_epc_overflow_penalty_kicks_in_past_knee(cm, vgg):
    assert cm.epc_overflow_penalty(vgg, 4) == 0.0
    assert cm.epc_overflow_penalty(vgg, 5) > 0.0
    assert cm.epc_overflow_penalty(vgg, 6) > cm.epc_overflow_penalty(vgg, 5)


def test_aggregation_speedup_peaks_at_knee(cm):
    for spec in (vgg16_spec(), resnet50_spec(), mobilenet_v2_spec()):
        base = cm.aggregation_time(spec, 1)
        speedups = {k: base / cm.aggregation_time(spec, k) for k in (2, 3, 4, 5)}
        assert speedups[2] < speedups[3] < speedups[4]
        assert speedups[5] < speedups[4]  # Fig. 3's K=5 dip
    with pytest.raises(ConfigurationError):
        cm.aggregation_time(vgg16_spec(), 0)


def test_multithread_latency_rises(cm, vgg):
    lat = [cm.multithread_latency(vgg, t) for t in (1, 2, 3, 4)]
    assert lat[0] < lat[1] < lat[2] < lat[3]
    assert lat[3] / lat[0] > 3.0  # paper's Fig. 7 inversion
    with pytest.raises(ConfigurationError):
        cm.multithread_latency(vgg, 0)


def test_integrity_costs_extra(cm, vgg):
    plain = cm.darknight_training(vgg, DarKnightConfig(virtual_batch_size=3))
    verified = cm.darknight_training(
        vgg, DarKnightConfig(virtual_batch_size=3, integrity=True)
    )
    assert verified.total > plain.total


def test_kernel_efficiency_inference():
    # 1x1 conv inferred from macs == out_elems * in_channels.
    assert kernel_efficiency("conv", 64, 64 * 100, 100) == 0.35
    assert kernel_efficiency("conv", 64, 9 * 64 * 100, 100) == 1.0
    assert kernel_efficiency("depthwise_conv", 64, 1, 1) == 0.08
    assert kernel_efficiency("dense", 1, 1, 1) == 0.7


def test_phase_breakdown_zero_total_rejected():
    with pytest.raises(ConfigurationError):
        PhaseBreakdown(linear=0, nonlinear=0).fractions()


# ----------------------------------------------------------------------
# the baselines, phase by phase
# ----------------------------------------------------------------------
def test_sgx_baseline_training_runs_everything_in_the_enclave(cm, vgg):
    """Nothing is masked and nothing crosses a link: the baseline's time is
    its in-enclave linear and (paged) non-linear work, both directions."""
    bl = cm.sgx_baseline_training(vgg)
    assert bl.encode_decode == 0.0 and bl.communication == 0.0
    assert bl.linear == pytest.approx(
        cm.sgx_linear_time(vgg) + cm.sgx_linear_time(vgg, backward=True)
    )
    assert bl.nonlinear == pytest.approx(
        cm.sgx_nonlinear_time(vgg, resident=False)
        + cm.sgx_nonlinear_time(vgg, resident=False, backward=True)
    )


def test_sgx_baseline_inference_is_the_forward_half(cm, vgg):
    inf = cm.sgx_baseline_inference(vgg)
    train = cm.sgx_baseline_training(vgg)
    assert inf.linear == pytest.approx(cm.sgx_linear_time(vgg))
    assert inf.nonlinear == pytest.approx(cm.sgx_nonlinear_time(vgg, resident=False))
    assert inf.encode_decode == inf.communication == 0.0
    assert inf.total < train.total


def test_gpu_only_training_one_gpu_has_no_allreduce(cm, vgg):
    compute = (
        cm.gpu_linear_time(vgg)
        + cm.gpu_linear_time(vgg, backward=True)
        + 2 * cm.gpu_nonlinear_time(vgg)
    )
    assert cm.gpu_only_training(vgg, n_gpus=1) == pytest.approx(compute)
    three = cm.gpu_only_training(vgg, n_gpus=3)
    assert compute / 3 < three < compute  # split three ways, plus the all-reduce
    # A bigger batch amortises the same all-reduce over more samples.
    assert cm.gpu_only_training(vgg, 3, batch_size=256) < three


# ----------------------------------------------------------------------
# non-linear, masking and transfer terms
# ----------------------------------------------------------------------
def test_gpu_nonlinear_beats_the_enclave_in_either_regime(cm, vgg):
    gpu = cm.gpu_nonlinear_time(vgg)
    resident = cm.sgx_nonlinear_time(vgg, resident=True)
    paged = cm.sgx_nonlinear_time(vgg, resident=False)
    assert 0 < gpu < resident < paged


def test_per_virtual_batch_overhead_shrinks_with_k(cm, vgg):
    base = cm.sgx_nonlinear_time(vgg, resident=True)
    for k in (1, 2, 4, 8):
        scaled = cm.sgx_nonlinear_time(vgg, resident=True, virtual_batch=k)
        assert scaled == pytest.approx(base * (1 + 0.25 / k))


def test_inference_masking_skips_the_backward_decode(cm, vgg):
    cfg = DarKnightConfig(virtual_batch_size=2)
    assert 0 < cm.masking_time(vgg, cfg, training=False) < cm.masking_time(vgg, cfg)


def test_masking_grows_with_collusion_tolerance(cm, vgg):
    one = cm.masking_time(vgg, DarKnightConfig(virtual_batch_size=2))
    two = cm.masking_time(vgg, DarKnightConfig(virtual_batch_size=2, collusion_tolerance=2))
    assert two > one


def test_integrity_adds_link_time_to_training_only(cm, vgg):
    plain = DarKnightConfig(virtual_batch_size=2)
    verified = DarKnightConfig(virtual_batch_size=2, integrity=True)
    assert cm.darknight_comm_time(vgg, verified) > cm.darknight_comm_time(vgg, plain)
    assert cm.darknight_comm_time(vgg, verified, training=False) == pytest.approx(
        cm.darknight_comm_time(vgg, plain, training=False)
    )
    assert cm.darknight_comm_time(vgg, plain, training=False) < cm.darknight_comm_time(
        vgg, plain
    )


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------
def test_profile_rate_selectors_pick_their_regime():
    gpu, sgx = GpuProfile(), SgxProfile()
    assert gpu.linear_rate() == gpu.linear_macs_per_s_forward
    assert gpu.linear_rate(backward=True) == gpu.linear_macs_per_s_backward
    assert sgx.bn_rate(resident=True) == sgx.bn_ops_per_s_resident
    assert sgx.bn_rate(resident=False) == sgx.bn_ops_per_s_paged
    assert sgx.relu_rate(True) > sgx.relu_rate(False)
    assert sgx.pool_rate(True) > sgx.pool_rate(False)


def test_a_faster_link_shrinks_only_the_transfer_phase(cm, vgg):
    """The transfer phase is the spec's link bytes over the link's
    bandwidth: per virtual batch, each link carries one input and one
    output share forward, then K quantized deltas and one ``Eq_j`` back."""
    k = 2
    f_in, f_out = cm._linear_in_out_elems(vgg)
    grad_elems = sum(layer.counts.params for layer in vgg.layers if layer.is_linear)
    link_bytes = (f_in + f_out + k * f_out + grad_elems) * BYTES_PER_ELEMENT / k
    phases = cm.darknight_training(vgg, DarKnightConfig(virtual_batch_size=k))
    assert phases.communication == pytest.approx(link_bytes / DEFAULT_SYSTEM.link.bytes_per_s)
