"""Analytical cost model: architecture specs + device profiles -> seconds.

All times are **per training sample** (or per inference sample) unless a
method says otherwise.  The model prices four phases, mirroring the paper's
Table 3 categories:

* ``linear``      — bilinear ops on the executing device;
* ``nonlinear``   — TEE-resident ops (ReLU/pool/BN/softmax);
* ``encode_decode`` — masking/unmasking traffic + field MACs in the TEE;
* ``communication`` — TEE<->GPU transfers over per-GPU dedicated links.

Execution-model assumptions (documented here once, used everywhere):

* Every GPU holds exactly one share, so a virtual batch of ``K`` samples is
  processed by ``S = K + M (+1)`` GPUs *in parallel* — per-sample GPU wall
  time is the single-share kernel time divided by ``K``.
* Encode/decode in the enclave is memory-traffic bound (the per-element
  coefficient MACs are register-resident): cost = max(traffic, field MACs).
  This is what makes per-sample masking cost *fall* as K grows (Fig. 6b)
  until the EPC knee.
* The enclave's virtual-batch working set is modelled as ``K/KNEE`` of the
  usable EPC with ``KNEE = 4.6``: the paper measures K=4 as the largest
  virtual batch that avoids SGX paging for all three models (Fig. 3/6b);
  beyond it the excess pages at the profile's paging bandwidth.
* Backward ``δ``-propagation (input gradients) runs unencoded on GPUs and
  its tensors travel in the backward communication budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.specs import ModelSpec
from repro.perf.devices import BYTES_PER_ELEMENT, DEFAULT_SYSTEM, kernel_efficiency
from repro.runtime.config import DarKnightConfig
from repro.slalom.freivalds import freivalds_macs

#: Virtual-batch EPC knee (samples) calibrated to the paper's K=4 optimum.
EPC_KNEE_SAMPLES = 4.6

#: Mild fixed per-virtual-batch TEE overhead factor: op time is scaled by
#: ``1 + BATCH_OVERHEAD / K`` (dispatch, boundary crossings), which gives
#: the small ReLU/MaxPool gains with larger K visible in Fig. 6b.
BATCH_OVERHEAD = 0.25


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-sample seconds by phase (the paper's Table 3 categories)."""

    linear: float
    nonlinear: float
    encode_decode: float = 0.0
    communication: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all phases (non-pipelined execution)."""
        return self.linear + self.nonlinear + self.encode_decode + self.communication

    def fractions(self) -> dict[str, float]:
        """Phase fractions of the total (Table 3's reported numbers)."""
        t = self.total
        if t <= 0:
            raise ConfigurationError("cannot take fractions of a zero breakdown")
        return {
            "linear": self.linear / t,
            "nonlinear": self.nonlinear / t,
            "encode_decode": self.encode_decode / t,
            "communication": self.communication / t,
        }


class CostModel:
    """Prices workloads described by :class:`~repro.models.specs.ModelSpec`
    on the paper's testbed, :data:`~repro.perf.devices.DEFAULT_SYSTEM`."""

    system = DEFAULT_SYSTEM

    # ------------------------------------------------------------------
    # element inventories
    # ------------------------------------------------------------------
    @staticmethod
    def _linear_in_out_elems(spec: ModelSpec) -> tuple[int, int]:
        """Input and output element totals across offloadable layers."""
        f_in = 0
        f_out = 0
        for layer in spec.layers:
            if not layer.is_linear:
                continue
            in_elems = 1
            for d in layer.in_shape:
                in_elems *= d
            f_in += in_elems
            f_out += layer.counts.activation_elems
        return f_in, f_out

    # ------------------------------------------------------------------
    # linear op times
    # ------------------------------------------------------------------
    def _linear_seconds(self, spec: ModelSpec, rate: float, backward: bool) -> float:
        total = 0.0
        for layer in spec.layers:
            if not layer.is_linear:
                continue
            eff = kernel_efficiency(
                layer.kind,
                layer.in_shape[0] if len(layer.in_shape) == 3 else layer.in_shape[0],
                layer.counts.macs_forward,
                layer.counts.activation_elems,
            )
            macs = (
                layer.counts.macs_grad_w + layer.counts.macs_grad_x
                if backward
                else layer.counts.macs_forward
            )
            total += macs / (rate * eff)
        return total

    def gpu_linear_time(self, spec: ModelSpec, backward: bool = False) -> float:
        """Single-GPU, single-sample linear time."""
        return self._linear_seconds(spec, self.system.gpu.linear_rate(backward), backward)

    def sgx_linear_time(self, spec: ModelSpec, backward: bool = False) -> float:
        """In-enclave single-sample linear time."""
        return self._linear_seconds(spec, self.system.sgx.linear_macs_per_s, backward)

    # ------------------------------------------------------------------
    # non-linear op times
    # ------------------------------------------------------------------
    def gpu_nonlinear_time(self, spec: ModelSpec) -> float:
        """Non-linear element ops on a GPU (non-private baseline only)."""
        ops = spec.elementwise_ops()
        return ops / self.system.gpu.elementwise_ops_per_s

    def sgx_nonlinear_time(
        self,
        spec: ModelSpec,
        resident: bool,
        backward: bool = False,
        virtual_batch: int | None = None,
    ) -> float:
        """TEE non-linear time; ``resident`` picks the paged/unpaged regime.

        Backward elementwise work is counted at forward op counts (gradient
        kernels touch the same tensors) with the resident-rate asymmetry
        Table 1 measures.
        """
        sgx = self.system.sgx
        relu_resident = resident or backward
        pool_resident = resident or backward
        relu = spec.elementwise_ops(frozenset({"relu"})) / sgx.relu_rate(relu_resident)
        pool = spec.elementwise_ops(frozenset({"maxpool"})) / sgx.pool_rate(pool_resident)
        bn = spec.elementwise_ops(frozenset({"batchnorm"})) / sgx.bn_rate(resident)
        other = (
            spec.elementwise_ops(frozenset({"global_avgpool", "add", "softmax"}))
            / sgx.other_ops_per_s
        )
        total = relu + pool + bn + other
        if virtual_batch is not None:
            total *= 1.0 + BATCH_OVERHEAD / max(1, virtual_batch)
        return total

    # ------------------------------------------------------------------
    # masking / communication
    # ------------------------------------------------------------------
    def encode_decode_times(
        self, spec: ModelSpec, cfg: DarKnightConfig
    ) -> tuple[float, float]:
        """Per-sample forward encode and decode seconds in the TEE.

        Encode turns ``f_in`` into ``n_shares`` share tensors; decode
        recovers ``f_out`` from ``K + M`` of them.  Each is the max of its
        traffic and its field MACs.
        """
        sgx = self.system.sgx
        k = cfg.virtual_batch_size
        sources = k + cfg.collusion_tolerance
        shares = cfg.n_shares
        f_in, f_out = self._linear_in_out_elems(spec)
        enc_traffic = shares * f_in * BYTES_PER_ELEMENT / k / sgx.mask_bytes_per_s
        enc_macs = f_in * sources * shares / k / sgx.field_macs_per_s
        dec_traffic = sources * f_out * BYTES_PER_ELEMENT / k / sgx.mask_bytes_per_s
        dec_macs = f_out * sources * sources / k / sgx.field_macs_per_s
        return max(enc_traffic, enc_macs), max(dec_traffic, dec_macs)

    def masking_time(
        self, spec: ModelSpec, cfg: DarKnightConfig, training: bool = True
    ) -> float:
        """Per-sample encode + decode time in the TEE (max of traffic/MACs)."""
        sgx = self.system.sgx
        k = cfg.virtual_batch_size
        shares = cfg.n_shares
        encode, decode = self.encode_decode_times(spec, cfg)
        total = encode + decode
        if training:
            # Backward decode: Σ γ_j Eq_j streams `shares` parameter-shaped
            # equations in and one aggregate out.
            grad_elems = sum(l.counts.params for l in spec.layers if l.is_linear)
            bwd_traffic = (
                (shares + 1) * grad_elems * BYTES_PER_ELEMENT / k / sgx.mask_bytes_per_s
            )
            bwd_macs = grad_elems * shares / k / sgx.field_macs_per_s
            total += max(bwd_traffic, bwd_macs)
        total += self.epc_overflow_penalty(spec, cfg.virtual_batch_size)
        return total

    def darknight_comm_time(
        self, spec: ModelSpec, cfg: DarKnightConfig, training: bool = True
    ) -> float:
        """Per-sample TEE<->GPU transfer wall time over dedicated links.

        Each link carries: one input share out + one output share back per
        virtual batch (forward); the K quantized gradients out + one
        parameter-shaped ``Eq_j`` back (backward).
        """
        link = self.system.link
        k = cfg.virtual_batch_size
        f_in, f_out = self._linear_in_out_elems(spec)
        fwd_bytes_per_link = (f_in + f_out) * BYTES_PER_ELEMENT
        total = fwd_bytes_per_link / k / link.bytes_per_s
        if training:
            grad_elems = sum(l.counts.params for l in spec.layers if l.is_linear)
            bwd_bytes_per_link = (
                k * f_out * BYTES_PER_ELEMENT  # quantized deltas broadcast
                + grad_elems * BYTES_PER_ELEMENT  # Eq_j result back
            )
            total += bwd_bytes_per_link / k / link.bytes_per_s
        if cfg.integrity and training:
            # The redundant-B verification repeats the Eq exchange once.
            grad_elems = sum(l.counts.params for l in spec.layers if l.is_linear)
            total += grad_elems * BYTES_PER_ELEMENT / k / link.bytes_per_s
        return total

    def epc_overflow_penalty(self, spec: ModelSpec, virtual_batch: int) -> float:
        """Paging seconds per sample once the virtual batch exceeds the knee."""
        sgx = self.system.sgx
        occupancy = virtual_batch / EPC_KNEE_SAMPLES * sgx.epc_usable_bytes
        excess = occupancy - sgx.epc_usable_bytes
        if excess <= 0:
            return 0.0
        # The excess round-trips through encrypted DRAM once per pass.
        return 2.0 * excess / sgx.paging_bytes_per_s / virtual_batch

    # ------------------------------------------------------------------
    # composite systems — training
    # ------------------------------------------------------------------
    def darknight_training(self, spec: ModelSpec, cfg: DarKnightConfig) -> PhaseBreakdown:
        """Per-sample DarKnight training breakdown (Table 3 / Fig. 5)."""
        k = cfg.virtual_batch_size
        # Forward + Eq_j: every GPU runs one sample-shaped kernel per virtual
        # batch in parallel -> per-sample wall time is single-share time / K.
        fwd = self.gpu_linear_time(spec, backward=False) / k
        # Eq_j is grad_w-shaped work; δ-propagation is grad_x-shaped and runs
        # batch-parallel across the S GPUs.
        grad_w = self._linear_seconds(
            spec, self.system.gpu.linear_rate(backward=True), backward=False
        ) / k
        grad_x = self._linear_seconds(
            spec, self.system.gpu.linear_rate(backward=True), backward=False
        ) / cfg.n_shares
        linear = fwd + grad_w + grad_x
        if cfg.integrity:
            linear += grad_w  # redundant Eq pass
        nonlinear = self.sgx_nonlinear_time(
            spec, resident=True, backward=False, virtual_batch=k
        ) + self.sgx_nonlinear_time(spec, resident=True, backward=True, virtual_batch=k)
        nonlinear += self._activation_eviction_time(spec, k)
        encode_decode = self.masking_time(spec, cfg, training=True)
        communication = self.darknight_comm_time(spec, cfg, training=True)
        return PhaseBreakdown(
            linear=linear,
            nonlinear=nonlinear,
            encode_decode=encode_decode,
            communication=communication,
        )

    def _activation_eviction_time(self, spec: ModelSpec, virtual_batch: int) -> float:
        """Per-sample seal/reload traffic for retained pre-activations.

        Training needs every layer's pre-activation inside the TEE for the
        non-linear backward (ReLU masks, pool argmax); at ImageNet scale the
        retained set exceeds the EPC and must round-trip encrypted.  The
        0.35 factor models the fraction still live at eviction time (the
        rest is consumed in place) and is part of the Table-3 calibration.
        """
        sgx = self.system.sgx
        retained = 2.0 * virtual_batch * spec.activation_bytes()
        excess = max(0.0, retained - sgx.epc_usable_bytes)
        return 0.35 * excess / virtual_batch / sgx.aead_bytes_per_s

    def sgx_baseline_training(self, spec: ModelSpec) -> PhaseBreakdown:
        """Everything in the enclave (the paper's baseline)."""
        linear = self.sgx_linear_time(spec, backward=False) + self.sgx_linear_time(
            spec, backward=True
        )
        nonlinear = self.sgx_nonlinear_time(spec, resident=False) + self.sgx_nonlinear_time(
            spec, resident=False, backward=True
        )
        return PhaseBreakdown(linear=linear, nonlinear=nonlinear)

    def gpu_only_training(
        self, spec: ModelSpec, n_gpus: int, batch_size: int = 128
    ) -> float:
        """Per-sample non-private data-parallel training time (Table 4)."""
        if n_gpus < 1:
            raise ConfigurationError(f"need >= 1 GPU, got {n_gpus}")
        compute = (
            self.gpu_linear_time(spec, backward=False)
            + self.gpu_linear_time(spec, backward=True)
            + self.gpu_nonlinear_time(spec) * 2
        ) / n_gpus
        # Ring all-reduce of gradients once per batch, amortised per sample.
        allreduce = (
            2.0 * spec.param_bytes * (n_gpus - 1) / n_gpus / self.system.link.bytes_per_s
        ) / batch_size
        return compute + allreduce

    # ------------------------------------------------------------------
    # composite systems — inference
    # ------------------------------------------------------------------
    def sgx_baseline_inference(self, spec: ModelSpec) -> PhaseBreakdown:
        """Forward-only, fully inside the enclave."""
        return PhaseBreakdown(
            linear=self.sgx_linear_time(spec, backward=False),
            nonlinear=self.sgx_nonlinear_time(spec, resident=False),
        )

    def darknight_inference(self, spec: ModelSpec, cfg: DarKnightConfig) -> PhaseBreakdown:
        """Per-sample DarKnight inference breakdown (Fig. 6a/6b)."""
        k = cfg.virtual_batch_size
        linear = self.gpu_linear_time(spec, backward=False) / k
        nonlinear = self.sgx_nonlinear_time(
            spec, resident=True, backward=False, virtual_batch=k
        )
        encode_decode = self.masking_time(spec, cfg, training=False)
        if cfg.integrity:
            # Integrity decodes from a second share subset: one extra decode.
            sources = k + cfg.collusion_tolerance
            _, f_out = self._linear_in_out_elems(spec)
            extra = max(
                sources * f_out * 8 / k / self.system.sgx.mask_bytes_per_s,
                f_out * sources * sources / k / self.system.sgx.field_macs_per_s,
            )
            encode_decode += extra
        communication = self.darknight_comm_time(spec, cfg, training=False)
        return PhaseBreakdown(
            linear=linear,
            nonlinear=nonlinear,
            encode_decode=encode_decode,
            communication=communication,
        )

    def slalom_inference(self, spec: ModelSpec, integrity: bool = False) -> PhaseBreakdown:
        """Per-sample Slalom inference breakdown (Fig. 6a comparator).

        One GPU, per-sample blinding, and — the structural difference to
        DarKnight — every layer reloads and decrypts its precomputed
        unblinding factors from untrusted memory.
        """
        sgx = self.system.sgx
        link = self.system.link
        f_in, f_out = self._linear_in_out_elems(spec)
        linear = self.gpu_linear_time(spec, backward=False)
        nonlinear = self.sgx_nonlinear_time(spec, resident=True, virtual_batch=1)
        # Blind (add r) + unblind (subtract u): traffic bound.
        blind = (f_in + f_out) * 8 / sgx.mask_bytes_per_s
        # Reload + AEAD-decrypt the u = W·r factors (per sample, per layer).
        reload = f_out * BYTES_PER_ELEMENT / sgx.aead_bytes_per_s
        encode_decode = blind + reload
        if integrity:
            # Freivalds on Y = W_flat (F x D) @ cols (D x P) instead of the
            # F·D·P recompute.  From spec counts: F = out channels,
            # P = act/F, D = macs/act.
            check_macs = 0
            for layer in spec.layers:
                if not layer.is_linear:
                    continue
                act = max(1, layer.counts.activation_elems)
                f = max(1, layer.out_shape[0])
                p = max(1, act // f)
                d = max(1, layer.counts.macs_forward // act)
                check_macs += freivalds_macs(f, d, p)
            encode_decode += check_macs / sgx.field_macs_per_s
        communication = (f_in + f_out) * BYTES_PER_ELEMENT / link.bytes_per_s
        return PhaseBreakdown(
            linear=linear,
            nonlinear=nonlinear,
            encode_decode=encode_decode,
            communication=communication,
        )

    # ------------------------------------------------------------------
    # Fig. 3 — aggregation, Fig. 7 — multithreading
    # ------------------------------------------------------------------
    def aggregation_time(
        self, spec: ModelSpec, virtual_batch: int, batch_size: int = 128
    ) -> float:
        """Seconds to aggregate one large batch's weight update (Algorithm 2).

        Per virtual batch: seal + evict ``▽W_v``; at batch end: reload,
        decrypt, and sum all of them shard-wise.  Larger K means fewer
        crypto round trips but a bigger encoding working set — past the EPC
        knee the paging penalty claws the gains back (Fig. 3's K=5 dip).
        The shard count does not enter: sharding pipelines the transfers
        and leaves the totals unchanged.
        """
        if virtual_batch < 1 or batch_size < virtual_batch:
            raise ConfigurationError(
                f"invalid sizes: K={virtual_batch}, batch={batch_size}"
            )
        sgx = self.system.sgx
        n_vb = -(-batch_size // virtual_batch)
        grad_bytes = spec.param_bytes
        seal_time = grad_bytes / sgx.aead_bytes_per_s  # seal+evict per vb
        reload_time = grad_bytes / sgx.aead_bytes_per_s  # reload+unseal per vb
        sum_time = grad_bytes / sgx.mask_bytes_per_s
        per_vb = seal_time + reload_time + sum_time
        # Per-sample TEE encode work that does NOT shrink with K (the fixed
        # part that caps Fig. 3 speedups below ideal K-for-free scaling).
        per_sample_fixed = self.masking_time(
            spec, DarKnightConfig(virtual_batch_size=virtual_batch), training=True
        ) * virtual_batch / 3.0
        # Past the EPC knee the encode buffers + resident ▽W_v shard page:
        # the traffic scales with the model's update footprint.
        over = max(0.0, virtual_batch / EPC_KNEE_SAMPLES - 1.0)
        paging_per_vb = (
            over * 1.5 * (grad_bytes + sgx.epc_usable_bytes) * 2.0 / sgx.paging_bytes_per_s
        )
        return n_vb * (per_vb + per_sample_fixed + paging_per_vb)

    def multithread_latency(self, spec: ModelSpec, threads: int) -> float:
        """Relative per-batch latency of ``threads`` concurrent SGX trainers.

        Each thread's working set (weights + a batch of activations) already
        exceeds the EPC for large models; concurrent threads multiply the
        paging traffic through the shared memory-encryption engine, so
        latency *rises* with threads (Fig. 7's inversion).
        """
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        sgx = self.system.sgx
        compute = self.sgx_baseline_training(spec).total
        working_set = spec.param_bytes + spec.activation_bytes() * 2
        total_ws = threads * working_set
        excess = max(0.0, total_ws - sgx.epc_usable_bytes)
        # Every thread's critical path sees the full contended paging stream.
        paging = threads * excess / sgx.paging_bytes_per_s
        return compute + paging
