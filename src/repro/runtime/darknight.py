"""The DarKnight execution backend: TEE-GPU cooperative linear algebra.

This is the paper's Section 3.1 flow as a :class:`~repro.nn.backends.LinearBackend`:

1. the enclave quantizes a virtual batch of layer inputs into ``F_p``;
2. masks them into ``K + M (+1)`` shares with fresh coefficients;
3. scatters one share per simulated GPU over the (modeled) link;
4. GPUs run the bilinear kernel on their share;
5. the enclave decodes the stacked results exactly, optionally verifying
   integrity via a second decode subset, and dequantizes back to float;
6. backward weight gradients reuse the *stored* forward shares: GPUs combine
   the public-``B``-weighted gradients and return ``Eq_j``; the enclave
   recovers the batch-aggregate update with ``Σ_j γ_j·Eq_j``;
7. ``δ``-propagation (input gradients) is offloaded unencoded — it carries
   no input data (Section 4.2).

A batch is ``V = B/K`` *independent* virtual batches, each with its own
coefficients and noise, and the unit of execution here is the **stack** of
them: one quantize and range check over ``(V, K, ...)``, one stacked encode
GEMM, one cluster launch over the ``V·(K+M+1)`` resident shares per op, one
stacked decode per verification-plan subset, one stacked ``γ``-decode — and,
with fresh coefficients, one ``CoefficientSet.generate(count=V)``: the
step's ``V`` sets and their noise from one call and one elimination.  What
stays per virtual batch is what the protocol makes per virtual batch —
normalisation factors, the coefficient set and noise themselves (drawn in
virtual-batch order, ``coeff₀, noise₀, coeff₁, ...``, exactly the stream a
per-virtual-batch loop consumes), share keys, link and ledger entries (one
``generate_coefficients`` per set), and the integrity verdict, which names
the virtual batch it convicts.

The forward flow is exposed two ways.  The classic blocking entry points
(:meth:`DarKnightBackend.conv2d_forward` / :meth:`~DarKnightBackend.dense_forward`)
serve training and ``pipeline_depth=1`` inference and run a layer's whole
stack at once.  The three explicitly schedulable stage ops —
:meth:`~DarKnightBackend.encode` → :meth:`~DarKnightBackend.dispatch` →
:meth:`~DarKnightBackend.decode` — are the ``V = 1`` stack of the same
code, which :class:`repro.pipeline.PipelineExecutor` interleaves across
virtual batches so the enclave encodes batch ``n+1`` while GPUs compute
batch ``n`` (the paper's Fig. 7 threading argument).  Both paths are
bit-identical: masking decodes exactly, so neither stage order nor stack
height changes values.

Plugging this backend into any :class:`~repro.nn.network.Sequential` makes
its linear layers private without touching model code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.comm import LinkModel
from repro.enclave import Enclave
from repro.errors import ConfigurationError, DecodingError
from repro.gpu import GpuCluster, ShareLaunch
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardDecoder,
    ForwardEncoder,
    IntegrityVerifier,
    iter_virtual_batches,
)
from repro.masking.forward import stack_arrays
from repro.masking.virtual_batch import VirtualBatch
from repro.pipeline.stages import EncodeTicket, GpuFuture, StagedLinearOp
from repro.precompute import MaskStreamPool
from repro.quantization import IDENTITY, DynamicNormalizer, Normalization, QuantizationConfig
from repro.runtime.aggregation import LargeBatchAggregator
from repro.runtime.config import DarKnightConfig


@dataclass
class _ForwardRecord:
    """State kept per (layer, virtual batch) from forward for backward reuse."""

    coefficients: CoefficientSet
    share_key: str
    indices: tuple[int, ...]
    n_real: int
    x_norm: Normalization
    w_norm: Normalization
    vb_index: int = 0


@dataclass
class _StagedWeights:
    """One layer's staged encoding, and the weights it was staged from.

    The encoding is reusable exactly while ``w`` — the same array object —
    still reads what it read then.  Identity alone is not enough: weights
    are updated in place (an optimiser step, ``Sequential.load_state_dict``),
    so the contents are compared against a private copy.
    """

    w: np.ndarray  #: The array that was staged ...
    snapshot: np.ndarray  #: ... and what it held.
    w_q: np.ndarray  #: Its normalised + quantized encoding (read-only).
    op: StagedLinearOp  #: The op handed out for it (kind and geometry).

    def still_holds(self, kind: str, stride: int, pad: int, w: np.ndarray) -> bool:
        op = self.op
        return (
            (op.kind, op.stride, op.pad) == (kind, stride, pad)
            and self.w is w
            and self.snapshot.shape == w.shape
            and bool((self.snapshot == w).all())
        )


class DarKnightBackend:
    """Masked TEE+GPU backend for conv/dense forward and weight gradients.

    Parameters
    ----------
    config:
        Session parameters (K, M, integrity, quantization...).
    enclave:
        The trusted side; provides randomness, accounting, sealing.
    cluster:
        Simulated accelerators; needs ``config.n_gpus_required`` devices.
    link:
        Interconnect cost model (bytes charged on every scatter/gather).
    """

    def __init__(
        self,
        config: DarKnightConfig | None = None,
        enclave: Enclave | None = None,
        cluster: GpuCluster | None = None,
        link: LinkModel | None = None,
    ) -> None:
        self.config = config or DarKnightConfig()
        self.enclave = enclave or Enclave(seed=self.config.seed)
        self.field = self.enclave.field
        if self.field.p != self.config.prime:
            raise DecodingError(
                f"enclave field p={self.field.p} != config prime {self.config.prime}"
            )
        self.cluster = cluster or GpuCluster(self.field, self.config.n_gpus_required)
        self.link = link or LinkModel()
        self.quantizer = QuantizationConfig(
            fractional_bits=self.config.fractional_bits, field=self.field
        )
        self._normalizer = (
            DynamicNormalizer() if self.config.dynamic_normalization else None
        )
        self._grad_normalizer = DynamicNormalizer()
        self._forward_store: dict[str, list[_ForwardRecord]] = {}
        self._cached_coefficients: CoefficientSet | None = None
        # Per-layer weight encodings the staged (inference) path reuses
        # while the weights read the same; the synchronous path consults
        # them only in precompute mode, so a training step keeps nothing.
        self._staged_weights: dict[str, _StagedWeights] = {}
        # Offline/online split: a counter-based mask pool (precompute mode).
        self._mask_pool: MaskStreamPool | None = None
        if self.config.precompute:
            base_key = (
                self.config.seed
                if self.config.seed is not None
                else int(self.enclave.rng.generator.integers(0, 2**63))
            )
            self._mask_pool = MaskStreamPool(self.field, base_key)
        self._aggregator = (
            LargeBatchAggregator(self.enclave) if self.config.sealed_aggregation else None
        )
        self._step = 0

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _normalize(self, values: np.ndarray) -> tuple[np.ndarray, Normalization]:
        if self._normalizer is None:
            return np.asarray(values, dtype=np.float64), IDENTITY
        return self._normalizer.normalize(values)

    def _normalize_stack(
        self, normalizer: DynamicNormalizer | None, stack: np.ndarray, lead: int = 1
    ) -> tuple[np.ndarray, list[Normalization]]:
        """Normalise a ``(V, K, ...)`` stack before quantization; returns the
        scaled stack and each virtual batch's own :class:`Normalization`.

        ``lead=1`` gives every virtual batch its scalar max-abs factor;
        ``lead=2`` (``per_sample_normalization``) gives every sample slot
        its own, so a slot's decoded output is invariant to what else
        shares the batch — the property shard routing relies on for
        bit-identical logits at every shard count.
        """
        n_batches = stack.shape[0]
        if normalizer is None:
            return np.asarray(stack, dtype=np.float64), [IDENTITY] * n_batches
        scaled, norm = normalizer.normalize_rows(stack, lead=lead)
        if norm is IDENTITY:
            return scaled, [IDENTITY] * n_batches
        if np.ndim(norm.factor) == 0:  # featureless rows: one scalar for all
            return scaled, [norm] * n_batches
        if lead == 1:
            return scaled, [Normalization(float(f)) for f in norm.factor.ravel()]
        return scaled, [Normalization(f) for f in norm.factor]

    def _generate_coefficients(self, **stack):
        """``CoefficientSet.generate`` under this session's (K, M, extra, mds)."""
        cfg = self.config
        return CoefficientSet.generate(
            self.enclave.rng,
            k=cfg.virtual_batch_size,
            m=cfg.collusion_tolerance,
            extra_shares=cfg.extra_shares,
            mds_noise=cfg.mds_noise,
            **stack,
        )

    def _coefficient_stack(
        self, n_batches: int, noise_shape: tuple[int, ...] | None
    ) -> tuple[Sequence[CoefficientSet], np.ndarray | None]:
        """One coefficient set per virtual batch of a layer step.

        Fresh coefficients come from one stacked ``generate``: the step's
        sets — and, when ``noise_shape`` is given, their ``(V, M, ...)``
        noise — from four block draws and one elimination, whatever ``V``
        is.  Otherwise the one cached set serves every virtual batch and no
        noise comes back (the encoder draws its own, per virtual batch).
        """
        if self.config.fresh_coefficients:
            drawn = self._generate_coefficients(count=n_batches, noise_shape=noise_shape)
            sets, noise = (drawn, None) if noise_shape is None else drawn
            self.enclave.record_compute("generate_coefficients", sets[0].a.nbytes, n_batches)
            return sets, noise
        # Coefficient shapes depend only on the (frozen) config's
        # (K, M, extra, mds) — the batch's feature shape never enters
        # because A/B/Gamma weight whole sample slots — so one cached set
        # serves every batch.  Reuse skips only the resample/inversion.
        n_reused = n_batches
        if self._cached_coefficients is None:
            self._cached_coefficients = self._generate_coefficients()
            self.enclave.record_compute(
                "generate_coefficients", self._cached_coefficients.a.nbytes
            )
            n_reused -= 1
        if n_reused:
            self.enclave.record_compute("reuse_coefficients", 0, n_reused)
        return [self._cached_coefficients] * n_batches, None

    def _scatter(self, share_keys: Sequence[str], shares: np.ndarray) -> None:
        """Send a stack's ``(V, S, ...)`` shares out: share ``(v, j)`` to
        device ``j`` under ``share_keys[v]``, one message each, one enclave
        exit per virtual batch."""
        for share_key, batch_shares in zip(share_keys, shares):
            self.cluster.scatter_shares(share_key, batch_shares)
        n_batches, n_shares = shares.shape[:2]
        self.link.transfer_many(n_batches * n_shares, int(shares[0, 0].nbytes))
        self.enclave.ocall("scatter_shares", int(shares[0].nbytes), n_batches)

    def _gather(self, outputs: np.ndarray) -> None:
        """Take a stack's ``(V, S, ...)`` device outputs in: one message per
        device and virtual batch, one enclave entry per virtual batch."""
        n_batches, n_shares = outputs.shape[:2]
        self.link.transfer_many(n_batches * n_shares, int(outputs[0, 0].nbytes))
        self.enclave.ecall("gather_outputs", int(outputs[0].nbytes), n_batches)

    def _verified_decode(
        self, tickets: Sequence[EncodeTicket], outputs: np.ndarray
    ) -> np.ndarray:
        """Unmask the ``(V, S, ...)`` ``outputs`` of a stack; with integrity
        on, the verifier's own primary decode is the result (no further
        decode of checked outputs) and a failure names its virtual batch."""
        sets = [ticket.coefficients for ticket in tickets]
        if not self.config.integrity:
            return ForwardDecoder(sets).decode(outputs)
        reports = IntegrityVerifier(sets).verify_forward(outputs)
        for ticket, report in zip(tickets, reports):
            report.raise_on_failure(
                f"layer {ticket.op.key!r}, virtual batch {ticket.vb_index}"
            )
        self.enclave.record_compute("integrity_check", int(outputs[0].nbytes), len(tickets))
        return stack_arrays([report.decoded for report in reports])

    # ------------------------------------------------------------------
    # staged forward ops: stage_linear -> encode -> dispatch -> decode
    # ------------------------------------------------------------------
    def stage_linear(
        self,
        kind: str,
        w: np.ndarray,
        b: np.ndarray | None,
        key: str,
        stride: int = 1,
        pad: int = 0,
        *,
        reuse: bool = True,
    ) -> StagedLinearOp:
        """Prepare one linear layer for staged execution.

        Called once per layer per window by the staged path (the pipeline
        executor — inference only), so each virtual batch afterwards only
        pays encode/dispatch/decode.  ``kind`` is ``"conv2d"`` or
        ``"dense"``.

        Weight normalisation and quantization are paid once per
        *deployment*, not per window: a layer's encoding is kept and reused
        for as long as the same weight array still holds the same values
        (checked by value on every call, so an in-place update, a
        ``load_state_dict`` or a swapped array re-stages on the next window).
        What a reuse books is each mode's own: precompute mode leaves the
        encoding resident on the devices (``reuse_weights``,
        ``staged_bytes`` 0); otherwise the kept encoding is re-broadcast
        and priced every window, exactly as a fresh one.

        ``reuse=False`` neither consults nor keeps an encoding.  The
        blocking forwards, which training shares, pass it outside precompute
        mode (serving-only): a training step changes every weight before
        the next staging, so a copy and a compare per layer would buy nothing.
        """
        if kind not in ("conv2d", "dense"):
            raise ConfigurationError(f"unknown staged linear op kind {kind!r}")
        # Re-staging a layer starts a fresh forward for it: stale records
        # (e.g. a re-forward with fewer virtual batches before end_batch)
        # are dropped wholesale, shares included, so backward never mixes
        # encodings from two different forward passes.
        stale = self._forward_store.pop(key, None)
        if stale:
            for record in stale:
                self.cluster.drop_shares(record.share_key)
        precompute = self.config.precompute
        w = np.asarray(w)
        kept = self._staged_weights.get(key) if reuse else None
        if kept is not None and kept.still_holds(kind, stride, pad, w):
            op = kept.op
            op.bias = b
            if precompute:
                # Offline phase: the encoding is still on the devices.
                op.staged_bytes = 0
                self.enclave.record_compute("reuse_weights", 0)
            else:
                self.cluster.broadcast_weights(key, kept.w_q)
                op.staged_bytes = int(kept.w_q.nbytes)
            return op
        w_scaled, w_norm = self._normalize(w)
        w_q = self.quantizer.quantize(w_scaled)
        self.cluster.broadcast_weights(key, w_q)
        validate = None
        if self.config.validate_decode:
            if kind == "conv2d":
                reference = lambda rows: self._float_conv(rows, w, stride, pad)
            else:
                reference = lambda rows: rows @ w
            validate = lambda got, rows: self._validate(got, reference(rows), key)
        op = StagedLinearOp(
            kind=kind,
            key=key,
            w_norm=w_norm,
            bias=b,
            stride=stride,
            pad=pad,
            validate=validate,
        )
        op.staged_bytes = int(w_q.nbytes)
        if precompute:
            self.enclave.record_compute("stage_weights", int(w_q.nbytes))
        if reuse:
            w_q.setflags(write=False)
            self._staged_weights[key] = _StagedWeights(w, w.copy(), w_q, op)
        return op

    def encode(
        self,
        op: StagedLinearOp,
        vb: VirtualBatch | Sequence[VirtualBatch],
        vb_index: int | Sequence[int],
    ) -> EncodeTicket | list[EncodeTicket]:
        """Stage 1 — mask one virtual batch and scatter its shares.

        ``vb`` and ``vb_index`` may be sequences — a layer step's stack of
        virtual batches, masked in one encode GEMM — in which case one
        ticket per virtual batch comes back.  Fresh coefficients and noise
        come from one stacked draw (by the block: every ``A``, then every
        ``γ``, then the noise), so a stack's shares are not the bytes of
        encoding its virtual batches one after another — what decodes from
        them is, exactly.  A single virtual batch draws the single set's
        stream.

        The forward records are registered *before* returning, so the
        shares now resident on the devices are always released by
        :meth:`end_batch`, even if the pipeline aborts before a ticket is
        ever dispatched or decoded.
        """
        stacked = not isinstance(vb, VirtualBatch)
        vbs, vb_indices = (vb, vb_index) if stacked else ([vb], [vb_index])
        data, x_norms = self._normalize_stack(
            self._normalizer,
            stack_arrays([batch.data for batch in vbs]),
            lead=2 if self.config.per_sample_normalization else 1,
        )
        x_q = self.quantizer.quantize(data)
        feature_shape = x_q.shape[2:]
        batch_bytes = int(x_q[0].nbytes)
        self.enclave.record_compute("quantize_inputs", batch_bytes, len(vbs))
        cfg = self.config
        k, m = cfg.virtual_batch_size, cfg.collusion_tolerance
        sets, noise = self._coefficient_stack(
            len(vbs), feature_shape if self._mask_pool is None else None
        )
        inline_noise_bytes = [m * (batch_bytes // k)] * len(vbs)
        if self._mask_pool is not None:
            pooled_noise = []
            for v in range(len(vbs)):
                tensor, pooled = self._mask_pool.draw(feature_shape, k, m)
                if pooled:
                    self.enclave.record_compute("mask_pool_hit", int(tensor.nbytes))
                    inline_noise_bytes[v] = 0
                else:
                    self.enclave.record_compute("mask_inline", int(tensor.nbytes))
                pooled_noise.append(tensor)
            noise = stack_arrays(pooled_noise)
        shares = ForwardEncoder(sets, self.enclave.rng).encode(x_q, noise=noise).shares
        share_bytes = int(shares[0].nbytes)
        self.enclave.record_compute("encode_forward", share_bytes, len(vbs))
        share_keys = [f"{op.key}/step{self._step}/vb{index}" for index in vb_indices]
        self._scatter(share_keys, shares)
        tickets = []
        for v, (batch, index, share_key) in enumerate(zip(vbs, vb_indices, share_keys)):
            self._forward_store.setdefault(op.key, []).append(
                _ForwardRecord(
                    coefficients=sets[v],
                    share_key=share_key,
                    indices=batch.indices,
                    n_real=batch.n_real,
                    x_norm=x_norms[v],
                    w_norm=op.w_norm,
                    vb_index=index,
                )
            )
            tickets.append(
                EncodeTicket(
                    op=op,
                    share_key=share_key,
                    coefficients=sets[v],
                    vb_index=index,
                    indices=batch.indices,
                    n_real=batch.n_real,
                    x_norm=x_norms[v],
                    encode_bytes=share_bytes,
                    inline_noise_bytes=inline_noise_bytes[v],
                )
            )
        return tickets if stacked else tickets[0]

    def dispatch(self, ticket: EncodeTicket | Sequence[EncodeTicket]) -> GpuFuture:
        """Stage 2 — one launch of the bilinear kernel over every share.

        A sequence of tickets (one layer's) is one launch over every share
        of the whole stack; the future then carries them all, its outputs
        under a leading virtual-batch axis.

        Compute happens eagerly (the simulation has no real asynchrony);
        the future carries the real per-share MAC count so a scheduler can
        price when the result *would* be ready on the simulated clock.
        """
        stacked = not isinstance(ticket, EncodeTicket)
        first = ticket[0] if stacked else ticket
        op = first.op
        launch = ShareLaunch(
            op.kind,
            tuple(t.share_key for t in ticket) if stacked else ticket.share_key,
            weight_name=op.key,
            stride=op.stride,
            pad=op.pad,
        )
        outputs, macs_per_share = self.cluster.map_shares(
            launch, range(first.coefficients.n_shares)
        )
        return GpuFuture(
            ticket=ticket,
            outputs=outputs,
            macs_per_share=macs_per_share,
            output_bytes=int(outputs.nbytes),
        )

    def decode(self, future: GpuFuture) -> np.ndarray | list[np.ndarray]:
        """Stage 3 — gather, verify, unmask, dequantize; real rows only.

        A stack's future decodes in one stacked GEMM per verification-plan
        subset and yields one array per virtual batch.  Bias is *not*
        applied here (callers add it after concatenation).
        """
        stacked = not isinstance(future.ticket, EncodeTicket)
        tickets = future.ticket if stacked else [future.ticket]
        outputs = future.outputs if stacked else future.outputs[None]
        self._gather(outputs)
        decoded = self._verified_decode(tickets, outputs)
        self.enclave.record_compute("decode_forward", int(decoded[0].nbytes), len(tickets))
        y = self.quantizer.dequantize_product(decoded)
        for batch_y, ticket in zip(y, tickets):
            batch_y *= ticket.x_norm.factor * ticket.op.w_norm.factor
        real = [batch_y[: ticket.n_real] for batch_y, ticket in zip(y, tickets)]
        return real if stacked else real[0]

    def _masked_forward(self, x: np.ndarray, op: StagedLinearOp) -> np.ndarray:
        """Synchronous forward: the three stages back to back, each once
        for the layer's whole stack of virtual batches."""
        vbs = list(iter_virtual_batches(x, self.config.virtual_batch_size))
        return np.concatenate(
            self.decode(self.dispatch(self.encode(op, vbs, range(len(vbs))))), axis=0
        )

    def conv2d_forward(self, x, w, b, stride, pad, key):
        """Masked convolution over the virtual-batched input."""
        op = self.stage_linear(
            "conv2d", w, b, key, stride, pad, reuse=self.config.precompute
        )
        out = self._masked_forward(x, op)
        if self.config.validate_decode:
            self._validate(out, self._float_conv(x, w, stride, pad), key)
        if b is not None:
            out = out + b.reshape(1, -1, 1, 1)
        return out

    def dense_forward(self, x, w, b, key):
        """Masked dense layer over the virtual-batched input."""
        op = self.stage_linear("dense", w, b, key, reuse=self.config.precompute)
        out = self._masked_forward(x, op)
        if self.config.validate_decode:
            self._validate(out, x @ w, key)
        if b is not None:
            out = out + b
        return out

    # ------------------------------------------------------------------
    # backward weight gradients (the Eq_j protocol)
    # ------------------------------------------------------------------
    def _masked_grad_w(
        self, delta: np.ndarray, key: str, kind: str, **geometry: int
    ) -> np.ndarray:
        """Shared backward path: returns ``Σ_i <δ(i), x(i)>`` in float.

        ``kind`` and the conv ``geometry`` (``kh``/``kw``/``stride``/``pad``)
        describe the ``Eq_j`` kernel; the layer's virtual batches are one
        backward launch over all their stored shares.
        """
        if self.config.per_sample_normalization:
            raise ConfigurationError(
                "per-sample normalization is inference-only: the backward"
                " decode recovers a batch-aggregated gradient, which only a"
                " scalar batch factor can unscale"
            )
        records = self._forward_store.get(key)
        if not records:
            raise DecodingError(
                f"no stored forward encodings for layer {key!r}; run forward first"
            )
        n_rows = sum(len(record.indices) for record in records)
        if delta.shape[0] != n_rows:
            raise DecodingError(
                f"layer {key!r}: the stored forward has {n_rows} rows,"
                f" delta has {delta.shape[0]}"
            )
        cfg = self.config
        # Pipelined forwards may register records out of virtual-batch order;
        # sum in vb order so gradients are bit-identical to the sync path.
        records = sorted(records, key=lambda r: r.vb_index)
        sets = [record.coefficients for record in records]
        n_shares = sets[0].n_shares
        rows = np.zeros(
            (len(records), cfg.virtual_batch_size) + delta.shape[1:], dtype=delta.dtype
        )
        for batch_rows, record in zip(rows, records):
            batch_rows[: len(record.indices)] = delta[list(record.indices)]
        d_scaled, d_norms = self._normalize_stack(self._grad_normalizer, rows)
        d_q = self.quantizer.quantize(d_scaled)
        # Quantized deltas and the public B rows ship to every GPU; the
        # combination Σ_i B[j,i]·δ(i) is GPU-side work (Section 4.2:
        # "δ(i)s are multiplied with the β_{j,i} in the GPUs").  With
        # integrity on, each device also combines under a second B,
        # supported on its set's alternate plan subset (solved with the
        # set, so reading it costs nothing here), in the same launch:
        # both equations share the one pass over its share.
        b_rows = [[coeffs.b] for coeffs in sets]
        if cfg.integrity:
            verifier = IntegrityVerifier(sets)
            plans = verifier.verification_plans()
            for per_batch, coeffs, plan in zip(b_rows, sets, plans):
                per_batch.append(coeffs.backward_matrices_for_subset(plan[1])[0])
        # Every device receives every virtual batch's quantized δ.
        delta_bytes = int(d_q[0].nbytes)
        self.enclave.record_compute("quantize_deltas", delta_bytes, len(records))
        self.link.transfer_many(len(records) * n_shares, delta_bytes)
        launch = ShareLaunch(
            kind,
            tuple(record.share_key for record in records),
            deltas=d_q,
            b_rows=np.array(b_rows).transpose(0, 2, 1, 3),  # (V, R, S, K) -> (V, S, R, K)
            **geometry,
        )
        equations, _ = self.cluster.map_shares(launch, range(n_shares))  # (V, S, R, ...)
        self._gather(equations[:, :, 0])
        # One γ-decode for the stack: each virtual batch under its own γ,
        # the alternate-B equations riding along its feature axis.
        aggregates = BackwardDecoder(sets).decode(equations)  # (V, R, ...)
        if cfg.integrity:
            reports = verifier.verify_backward(
                [
                    {coeffs.primary_subset: primary, plan[1]: alternate}
                    for coeffs, plan, (primary, alternate) in zip(sets, plans, aggregates)
                ]
            )
        grads = self.quantizer.dequantize_product(aggregates[:, 0])
        total: np.ndarray | None = None
        for v, record in enumerate(records):
            self.enclave.record_compute("decode_backward", int(aggregates[v, 0].nbytes))
            if cfg.integrity:
                reports[v].raise_on_failure(
                    f"layer {key!r}, virtual batch {record.vb_index}"
                )
                self.enclave.record_compute(
                    "integrity_check_backward", int(d_q[v].nbytes)
                )
            # The decode yields Σ<δ', x'> of the *normalised* operands; the
            # weight factor never enters a (δ, x) pairing, so only the input
            # and gradient factors multiply back.
            contribution = grads[v] * (record.x_norm.factor * d_norms[v].factor)
            if self._aggregator is not None:
                self._aggregator.add_update(f"{key}/{record.share_key}", contribution)
            else:
                total = contribution if total is None else total + contribution
        if self._aggregator is not None:
            keys = [f"{key}/{r.share_key}" for r in records]
            return self._aggregator.aggregate(keys)
        return total

    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        """Masked batch-aggregate conv weight gradient."""
        grad = self._masked_grad_w(
            delta, key, "conv2d", kh=kh, kw=kw, stride=stride, pad=pad
        )
        if self.config.validate_decode:
            from repro.nn import functional as F

            self._validate(
                grad, F.conv2d_grad_w(x, delta, kh, kw, np.matmul, stride, pad), key
            )
        return grad

    def dense_grad_w(self, x, delta, key):
        """Masked batch-aggregate dense weight gradient (``x^T @ δ``)."""
        grad = self._masked_grad_w(delta, key, "dense")
        if self.config.validate_decode:
            self._validate(grad, x.T @ delta, key)
        return grad

    # ------------------------------------------------------------------
    # delta propagation — offloaded unencoded (no input data involved)
    # ------------------------------------------------------------------
    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        """Input gradient on GPU 0, raw floats (Section 4.2's second op)."""
        return self.cluster[0].float_conv2d_grad_x(w, delta, x_shape, stride, pad)

    def dense_grad_x(self, w, delta, key):
        """Input gradient ``δ @ w^T`` on GPU 0, raw floats."""
        return self.cluster[0].float_matmul(delta, w.T)

    # ------------------------------------------------------------------
    # lifecycle / debug
    # ------------------------------------------------------------------
    def end_batch(self) -> None:
        """Drop stored encodings on enclave and GPUs (between batches).

        Idempotent: a second call with no intervening forward work is a
        no-op (and does not advance the step counter), so defensive
        ``finally:``-style cleanup can stack without consequence.  Every
        encoding registered by :meth:`encode` is released here — including
        tickets a pipeline abort left undispatched or undecoded.
        """
        if not self._forward_store:
            return
        for records in self._forward_store.values():
            for record in records:
                self.cluster.drop_shares(record.share_key)
        self._forward_store.clear()
        self._step += 1

    def open_encodings(self) -> int:
        """Stored (layer, virtual-batch) encodings not yet released."""
        return sum(len(records) for records in self._forward_store.values())

    # ------------------------------------------------------------------
    # offline precompute (mask pool + weight-encoding cache)
    # ------------------------------------------------------------------
    def invalidate_precompute(self) -> None:
        """Drop kept weight encodings (membership change / model swap).

        The next :meth:`stage_linear` per layer re-quantizes and
        re-broadcasts from scratch.  The mask pool is untouched — its
        streams are keyed by shape, not by model identity, and its
        counters must keep advancing for bit-identity.
        """
        self._staged_weights.clear()

    def precompute_pending(self) -> int:
        """Bytes of the next mask-pool refill unit (0 = saturated or off).

        The pipeline executor polls this to fill enclave idle gaps with
        ``stage_precompute`` work.
        """
        return 0 if self._mask_pool is None else self._mask_pool.pending_bytes()

    def precompute_refill(self) -> int:
        """Pregenerate one mask tensor; returns its byte size."""
        if self._mask_pool is None:
            return 0
        nbytes = self._mask_pool.refill_one()
        if nbytes:
            self.enclave.record_compute("precompute_mask", nbytes)
        return nbytes

    def precompute_snapshot(self) -> dict | None:
        """Strict-JSON pool + weight-cache telemetry (``None`` when off)."""
        if self._mask_pool is None:
            return None
        snap = self._mask_pool.snapshot()
        counts = self.enclave.ledger.op_counts
        snap["weights_staged"] = counts.get("stage_weights", 0)
        snap["weights_reused"] = counts.get("reuse_weights", 0)
        snap["cached_layers"] = len(self._staged_weights)
        return snap

    def assert_encodings_released(self) -> None:
        """Fail loudly if any encoding survived cleanup.

        Checks both sides of the scatter: the enclave's forward store and
        the shares resident on every device.  Called after
        :meth:`end_batch` on inference exit paths so a leak (e.g. an abort
        path that skipped a record) surfaces as an error, not as unbounded
        simulated-GPU memory growth.
        """
        leaked = sorted(
            key for dev in self.cluster.devices for key in dev.stored_shares
        )
        if self._forward_store or leaked:
            raise DecodingError(
                f"encodings not released: {self.open_encodings()} forward records"
                f" ({sorted(self._forward_store)}), device shares {leaked[:8]}"
            )

    def _float_conv(self, x, w, stride, pad):
        from repro.nn import functional as F

        return F.conv2d_via_matmul(x, w, np.matmul, stride, pad)

    def _validate(self, got: np.ndarray, want: np.ndarray, key: str) -> None:
        """Debug cross-check of a masked result against the float reference."""
        tol = max(1e-6, 4.0 * self.quantizer.resolution * np.sqrt(got.size / max(1, got.shape[0])))
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        scale = float(np.max(np.abs(want))) + 1.0
        if err > tol * scale:
            raise DecodingError(
                f"masked decode for {key!r} deviates from float reference:"
                f" max err {err:.3e} vs tolerance {tol * scale:.3e}"
                " (likely fixed-point range overflow; lower fractional_bits"
                " or enable dynamic normalisation)"
            )
