"""Configuration for the DarKnight runtime."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fieldmath import DEFAULT_PRIME


@dataclass(frozen=True)
class DarKnightConfig:
    """The paper's parameters of a DarKnight session.

    How a session runs — training's fresh coefficients, or serving's one
    reused set with per-slot normalisation and optional precompute — is
    the backend's mode (``DarKnightBackend(serving=..., precompute=...)``),
    which :meth:`repro.sharding.EnclaveShard.provision` sets for serving.

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
    validate_decode:
        Debug mode: cross-check every masked decode against a float
        reference and fail loudly on range overflow (tests use this).
    pipeline_depth:
        Virtual batches the :class:`~repro.pipeline.PipelineExecutor`
        keeps in flight.  ``1`` has one batch in flight, so encode,
        compute and decode serialize per batch; ``>= 2`` lets the enclave
        encode batch ``n+1`` while GPUs compute batch ``n`` (the paper's
        pipelined setting, Section 7.1).  Outputs are bit-identical at every depth and to
        the synchronous ``Sequential.forward``.
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
    epc_budget_bytes:
        Usable EPC bytes per enclave (``None`` keeps the paper
        generation's ~93 MB).  The server fits the virtual batch to this
        budget once, when it provisions a deployment, so one batch's
        masking working set never silently pages; tests and benchmarks
        shrink it to exercise the paper's Fig. 3/6b memory knee without
        93 MB tensors.
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
    validate_decode: bool = False
    pipeline_depth: int = 1
    num_shards: int = 1
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
