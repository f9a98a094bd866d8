"""Exception hierarchy for the DarKnight reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class FieldError(ReproError):
    """Invalid finite-field operation (bad modulus, non-invertible element...)."""


class SingularMatrixError(FieldError):
    """A matrix expected to be invertible over F_p is singular.

    ``singular`` is set by stacked inversions: a boolean mask over the
    leading stack axes naming the slices that have no inverse.
    ``inverses`` is the elimination's whole output, of the input's shape —
    the inverse of every slice ``singular`` does not mark — so one singular
    slice does not cost its neighbours a second elimination.
    """

    def __init__(self, message: str, singular=None, inverses=None) -> None:
        super().__init__(message)
        self.singular = singular
        self.inverses = inverses


class QuantizationError(ReproError):
    """Fixed-point conversion failed (overflow past the signed field range)."""


class EncodingError(ReproError):
    """Masking/encoding setup is inconsistent (dimension or coefficient errors)."""


class DecodingError(ReproError):
    """A decode could not recover the expected plaintext result."""


class IntegrityError(ReproError):
    """Redundant-share verification detected tampered GPU results."""


class EnclaveError(ReproError):
    """SGX-simulator failure (memory exhaustion, sealing, attestation...)."""


class AttestationError(EnclaveError):
    """Enclave measurement or quote verification failed."""


class SealingError(EnclaveError):
    """Sealed blob failed authentication on unseal."""


class CommunicationError(ReproError):
    """Secure-channel failure (bad MAC, no session established...)."""


class GpuError(ReproError):
    """Simulated accelerator failure."""


class ConfigurationError(ReproError):
    """A runtime / experiment configuration is invalid."""


class ServingError(ReproError):
    """Failure inside the multi-tenant private-inference serving subsystem."""


class AuditError(ReproError):
    """The verifiable serving audit trail detected tampering or misuse.

    Raised when a chained log fails its integrity walk, a proof does not
    authenticate, a replay diverges from the committed digests, or an
    audit API is asked something the log cannot answer.
    """


class ShardError(ServingError):
    """Failure inside the multi-enclave sharding subsystem."""


class ShardFailedError(ShardError):
    """An enclave shard died (or was killed) while work was assigned to it.

    Carries enough context for the dispatcher to account the batches the
    shard completed before dying and to fail the rest over to a survivor:

    Attributes
    ----------
    shard_id:
        The shard that failed.
    completed:
        The window's completed prefix as one account, ``(groups, stats)``
        exactly as a finished window returns it: one group per batch that
        finished, in window order, and one
        :class:`~repro.pipeline.stages.PipelineStats` for all of them.
        ``None`` when no batch finished.  Batch ``len(groups)`` of the
        window is the first that did not.
    """

    def __init__(
        self,
        message: str,
        shard_id: int = -1,
        completed: tuple | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.completed = completed
