"""Configuration for the DarKnight runtime."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fieldmath import DEFAULT_PRIME


@dataclass(frozen=True)
class DarKnightConfig:
    """Everything that parameterises a DarKnight session.

    Parameters
    ----------
    virtual_batch_size:
        ``K`` — inputs combined per encoding (SGX memory bounds it to ~4-8
        in the paper; Fig. 3/6b sweep it).
    collusion_tolerance:
        ``M`` — noise vectors; privacy holds against up to ``M`` colluding
        GPUs.  The paper's base scheme is ``M = 1``.
    integrity:
        Add one redundant share (``K' = K + M + 1`` GPUs) and verify every
        GPU result against a second decode subset (Section 4.4).
    fractional_bits:
        ``l`` of Algorithm 1 (8 in the paper).
    prime:
        Field modulus (``2**25 - 39`` in the paper).
    dynamic_normalization:
        Max-abs rescale tensors before quantization (the paper's VGG mode);
        gradients are always normalised since their scale varies wildly.
    mds_noise:
        Build the noise block as Vandermonde/MDS so collusion privacy is by
        construction, not w.h.p.
    sealed_aggregation:
        Route per-virtual-batch weight updates through Algorithm 2's
        seal -> evict -> reload -> aggregate path instead of accumulating
        in enclave memory.
    fresh_coefficients:
        Regenerate the masking coefficients for every virtual batch (the
        paper's training behaviour, and the safe default).  ``False`` lets
        the backend reuse one cached :class:`CoefficientSet` per
        ``(K, M, integrity)`` shape — the per-encode noise vectors stay
        fresh, only the resampling/inversion of ``A``/``B``/``Gamma`` is
        skipped, which the serving hot path exploits.
    validate_decode:
        Debug mode: cross-check every masked decode against a float
        reference and fail loudly on range overflow (tests use this).
    pipeline_depth:
        Virtual batches the inference pipeline keeps in flight.  ``1`` is
        the classic synchronous path (encode, compute, decode serialize
        per batch); ``>= 2`` lets the enclave encode batch ``n+1`` while
        GPUs compute batch ``n`` (the paper's Fig. 7 overlap).  Outputs
        are bit-identical at every depth.
    stage_ranker:
        The pipeline executor's task-selection policy
        (:mod:`repro.pipeline.ranker`): ``"earliest"`` (the default —
        earliest feasible start, decode-first tie-break) or
        ``"deadline"`` (jobs carrying the tightest remaining SLO budget
        run first).  Every ranker decodes bit-identical values; only the
        simulated schedule changes.
    num_shards:
        Enclave shards the serving layer partitions tenants across.  Each
        shard owns its own enclave + GPU cluster + serialized timeline, so
        shards progress in parallel on the simulated clock; ``1`` keeps
        the single-enclave deployment.  Requires
        ``num_shards * n_gpus_required`` simulated GPUs in total.  Under
        elastic autoscaling (``ServingConfig.autoscale``) this is only
        the *initial* count — the server clamps it into the autoscaler's
        ``[min_shards, max_shards]`` band and membership changes at
        runtime.
    per_sample_normalization:
        Dynamic-normalize each virtual-batch slot by its *own* max-abs
        instead of the whole batch's, making a sample's decoded logits
        independent of whatever it was co-batched with.  Inference-only
        (the backward pass needs a scalar batch factor); the serving layer
        enables it so routing/coalescing choices — including shard counts —
        can never change a response bit.
    precompute:
        Enable the offline/online split (:mod:`repro.precompute`): masks
        are drawn from a pregenerated counter-based pool refilled during
        enclave idle gaps, weight encodings are cached per layer across
        flush windows (invalidated on membership change / model swap),
        and the encode/decode staging reuses per-shape scratch buffers.  Off (the
        default) keeps the legacy always-inline behaviour; outputs are
        bit-identical either way.
    epc_budget_bytes:
        Usable EPC bytes each provisioned enclave models (``None`` keeps
        the paper generation's ~93 MB).  The serving layer's adaptive
        batching sizes the virtual batch against this budget so one
        batch's masking working set never silently pages; tests and
        benchmarks shrink it to exercise the paper's Fig. 3/6b memory
        knee without 93 MB tensors.
    seed:
        Seed for all enclave randomness.
    """

    virtual_batch_size: int = 4
    collusion_tolerance: int = 1
    integrity: bool = False
    fractional_bits: int = 8
    prime: int = DEFAULT_PRIME
    dynamic_normalization: bool = True
    mds_noise: bool = True
    sealed_aggregation: bool = False
    fresh_coefficients: bool = True
    validate_decode: bool = False
    pipeline_depth: int = 1
    stage_ranker: str = "earliest"
    num_shards: int = 1
    per_sample_normalization: bool = False
    precompute: bool = False
    epc_budget_bytes: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.virtual_batch_size < 1:
            raise ConfigurationError(
                f"virtual batch size must be >= 1, got {self.virtual_batch_size}"
            )
        if self.collusion_tolerance < 1:
            raise ConfigurationError(
                f"collusion tolerance must be >= 1, got {self.collusion_tolerance}"
            )
        if self.fractional_bits < 1:
            raise ConfigurationError(
                f"fractional bits must be >= 1, got {self.fractional_bits}"
            )
        if self.pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline depth must be >= 1, got {self.pipeline_depth}"
            )
        # Validated here (not just at executor construction) so a bad
        # name fails before any enclave/GPU provisioning happens.
        from repro.pipeline.ranker import STAGE_RANKERS

        if self.stage_ranker not in STAGE_RANKERS:
            raise ConfigurationError(
                f"unknown stage ranker {self.stage_ranker!r}"
                f" (available: {sorted(STAGE_RANKERS)})"
            )
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num shards must be >= 1, got {self.num_shards}"
            )
        if self.epc_budget_bytes is not None and self.epc_budget_bytes <= 0:
            raise ConfigurationError(
                f"EPC budget must be > 0 bytes, got {self.epc_budget_bytes}"
            )

    @property
    def extra_shares(self) -> int:
        """Redundant shares added for integrity."""
        return 1 if self.integrity else 0

    @property
    def n_shares(self) -> int:
        """Encoded shares per virtual batch = GPUs that receive data."""
        return self.virtual_batch_size + self.collusion_tolerance + self.extra_shares

    @property
    def n_gpus_required(self) -> int:
        """``K'`` — the paper's ``K + M + 1 <= K'`` bound (equality here)."""
        return self.n_shares
