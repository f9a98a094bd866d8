"""Direct tests for the analytical timeline helpers."""

import pytest

from repro.perf import PhaseBreakdown, build_timeline


@pytest.fixture()
def breakdown():
    return PhaseBreakdown(
        linear=2.0, nonlinear=5.0, encode_decode=1.0, communication=3.0
    )


def test_streams_mapping(breakdown):
    # The pipelined time is the slowest stream: TEE = nonlinear + encode/decode.
    assert build_timeline(breakdown).pipelined == 6.0
    link_bound = PhaseBreakdown(linear=2.0, nonlinear=1.0, encode_decode=1.0, communication=3.0)
    assert build_timeline(link_bound).pipelined == 3.0


def test_non_pipelined_is_total(breakdown):
    tl = build_timeline(breakdown)
    assert tl.non_pipelined == pytest.approx(breakdown.total) == 11.0


def test_pipelined_is_slowest_stream(breakdown):
    tl = build_timeline(breakdown)
    assert tl.pipelined == 6.0
    assert tl.non_pipelined / tl.pipelined == pytest.approx(11.0 / 6.0)


def test_pipeline_gain_handles_zero():
    tl = build_timeline(PhaseBreakdown(linear=0, nonlinear=0))
    assert tl.pipelined == tl.non_pipelined == 0.0


def test_gpu_bound_workload_pipelines_to_gpu_stream():
    gpu_bound = PhaseBreakdown(
        linear=10.0, nonlinear=1.0, encode_decode=0.5, communication=2.0
    )
    tl = build_timeline(gpu_bound)
    assert tl.pipelined == 10.0
