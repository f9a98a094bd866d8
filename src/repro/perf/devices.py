"""Device performance profiles for the analytical cost model.

Calibration policy: the SGX and GPU constants below are set
*once* so that Table 1's measured GPU-vs-SGX ratios on VGG16 emerge, then
every other table and figure is predicted from the same constants.  They are
effective throughputs, not datasheet peaks — e.g. the SGX forward-ReLU rate
folds in the encrypted paging of large feature maps that the paper blames
for its 119x gap, while the "enclave-resident" rates describe DarKnight-mode
execution whose working set fits the EPC.

Per-kernel efficiency factors capture that depthwise and 1x1 convolutions
are memory-bound on both devices (the reason MobileNet is the paper's
worst case).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.enclave.epc import EPC_USABLE_BYTES

#: Bytes per tensor element, in enclave memory and on the wire alike:
#: float32 activations and 25-bit field words both ride in 4-byte words.
BYTES_PER_ELEMENT = 4

#: Arithmetic-intensity efficiency by linear-layer flavour (both devices).
KERNEL_EFFICIENCY = {
    "conv": 1.0,  # dense 3x3+ convolutions: compute bound
    "conv1x1": 0.35,  # pointwise convs: memory bound
    "depthwise_conv": 0.08,  # depthwise: severely memory bound
    "dense": 0.7,  # big GEMMs, slightly under conv efficiency
}


@dataclass(frozen=True)
class GpuProfile:
    """Effective throughput of one accelerator (GTX 1080 Ti class)."""

    name: str = "gtx1080ti"
    #: Forward linear MACs/s (calibrated: Table 1 forward linear = 126.9x).
    linear_macs_per_s_forward: float = 5.71e12
    #: Backward linear MACs/s (calibrated: Table 1 backward linear = 149.1x).
    linear_macs_per_s_backward: float = 6.71e12
    #: Element-ops/s for relu/pool/bn (bandwidth bound).
    elementwise_ops_per_s: float = 2.0e10

    def linear_rate(self, backward: bool = False) -> float:
        """MACs/s for the requested direction."""
        return (
            self.linear_macs_per_s_backward if backward else self.linear_macs_per_s_forward
        )


@dataclass(frozen=True)
class SgxProfile:
    """Effective throughput of the SGX CPU (Coffee Lake E-2174G class).

    Two regimes per non-linear op: ``paged`` rates describe the baseline
    that streams oversized feature maps through encrypted paging (Table 1's
    measurement); ``resident`` rates describe DarKnight-mode TEE work whose
    virtual-batch working set fits the EPC.
    """

    name: str = "sgx-coffeelake"
    #: Linear MACs/s inside the enclave (calibrated: 126.9x/149.1x vs GPU).
    linear_macs_per_s: float = 4.5e10
    #: ReLU element-ops/s, paged (Table 1 forward: 119.6x slower than GPU).
    relu_ops_per_s_paged: float = 1.672e8
    #: ReLU element-ops/s, enclave-resident (backward / DarKnight mode).
    relu_ops_per_s_resident: float = 3.035e9
    #: MaxPool ops/s, paged (Table 1 forward: 11.86x).
    pool_ops_per_s_paged: float = 1.686e9
    #: MaxPool ops/s, resident (Table 1 backward: 5.47x).
    pool_ops_per_s_resident: float = 3.656e9
    #: BatchNorm ops/s, paged (baseline) — calibrated to Table 3 fractions.
    bn_ops_per_s_paged: float = 1.0e9
    #: BatchNorm ops/s, resident (DarKnight mode).
    bn_ops_per_s_resident: float = 1.6e9
    #: Other elementwise (softmax/add/avgpool) ops/s.
    other_ops_per_s: float = 2.0e9
    #: Field MACs/s for encode/decode (int64 mul+add+mod, AVX-512 lanes);
    #: high enough that masking stays traffic-bound for small K — the
    #: regime behind Fig. 6b's rising blinding/unblinding speedups.
    field_macs_per_s: float = 6.0e10
    #: Enclave memory bandwidth for streaming masked shares (encode/decode
    #: is traffic-bound: coefficients are tiny, share tensors are not; the
    #: working set is EPC-resident so this runs at near-DRAM speed).
    mask_bytes_per_s: float = 4.0e10
    #: AEAD throughput for sealing/eviction (AES-NI class).
    aead_bytes_per_s: float = 3.0e9
    #: Encrypted paging bandwidth once the EPC overflows.
    paging_bytes_per_s: float = 1.45e9
    #: Usable protected memory.
    epc_usable_bytes: int = EPC_USABLE_BYTES

    def relu_rate(self, resident: bool) -> float:
        """ReLU throughput for the given residency regime."""
        return self.relu_ops_per_s_resident if resident else self.relu_ops_per_s_paged

    def pool_rate(self, resident: bool) -> float:
        """Pooling throughput for the given residency regime."""
        return self.pool_ops_per_s_resident if resident else self.pool_ops_per_s_paged

    def bn_rate(self, resident: bool) -> float:
        """BatchNorm throughput for the given residency regime."""
        return self.bn_ops_per_s_resident if resident else self.bn_ops_per_s_paged


@dataclass(frozen=True)
class LinkProfile:
    """Per-GPU dedicated interconnect (40 Gbps Infiniband, Section 7)."""

    name: str = "infiniband-40g"
    bytes_per_s: float = 5.0e9


@dataclass(frozen=True)
class SystemProfile:
    """The full testbed: one SGX host, K' GPUs, dedicated links."""

    sgx: SgxProfile = dataclass_field(default_factory=SgxProfile)
    gpu: GpuProfile = dataclass_field(default_factory=GpuProfile)
    link: LinkProfile = dataclass_field(default_factory=LinkProfile)


DEFAULT_SYSTEM = SystemProfile()


def kernel_efficiency(kind: str, in_channels: int, macs: int, out_elems: int) -> float:
    """Efficiency factor for a linear layer, inferring 1x1 convs from counts.

    A conv layer whose MACs equal ``out_elems * in_channels`` has a 1x1
    kernel (pointwise), which both devices execute memory-bound.
    """
    if kind == "conv" and out_elems > 0 and macs == out_elems * in_channels:
        return KERNEL_EFFICIENCY["conv1x1"]
    return KERNEL_EFFICIENCY.get(kind, 1.0)
