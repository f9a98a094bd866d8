"""Simulated untrusted accelerators: kernels, devices, faults, collusion."""

from repro.gpu.cluster import GpuCluster, ShareLaunch
from repro.gpu.collusion import CollusionPool, ReconstructionResult
from repro.gpu.device import GpuLedger, SimulatedGpu
from repro.gpu.faults import HONEST, FaultInjector, RandomTamper, TargetedTamper
from repro.gpu.kernels import FieldKernels, FloatKernels

__all__ = [
    "GpuCluster",
    "ShareLaunch",
    "SimulatedGpu",
    "GpuLedger",
    "FieldKernels",
    "FloatKernels",
    "FaultInjector",
    "RandomTamper",
    "TargetedTamper",
    "HONEST",
    "CollusionPool",
    "ReconstructionResult",
]
