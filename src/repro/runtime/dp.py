"""Central differential privacy on top of DarKnight (the paper's suggestion).

Section 3: "One common defense is using central differential privacy to
keep the model private.  Central differential privacy can be used on top of
DarKnight [Erlingsson et al.]."  DarKnight's enclave is the natural DP
aggregator: it already computes the batch-aggregate update ``▽W`` in
cleartext inside the TEE, so it can clip and noise that aggregate *before*
anything leaves protected memory — the GPUs (and anyone watching model
updates) only ever see the privatised gradient.

:class:`GradientPrivatizer` implements Gaussian-mechanism DP-SGD at the
aggregate level: per-example clipping happens upstream by bounding the
virtual-batch contribution norm, and the privacy ledger tracks (ε, δ) under
basic composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DpConfig:
    """Gaussian-mechanism parameters.

    Parameters
    ----------
    clip_norm:
        L2 bound ``C`` enforced on each batch-aggregate update (the
        mechanism's sensitivity).
    noise_multiplier:
        ``σ``; noise std is ``σ·C``.
    delta:
        Target δ of the (ε, δ) guarantee.
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 1.0
    delta: float = 1e-5

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ConfigurationError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_multiplier <= 0:
            raise ConfigurationError(
                f"noise_multiplier must be positive, got {self.noise_multiplier}"
            )
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")

    def epsilon_per_step(self) -> float:
        """Single-release ε of the Gaussian mechanism at this σ and δ."""
        return math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.noise_multiplier


class PrivacyLedger:
    """(ε, δ) accounting over released updates.

    Reports basic composition (ε grows linearly), the simplest budget view
    for DP-SGD without a moments accountant.
    """

    def __init__(self, config: DpConfig) -> None:
        self.config = config
        self.steps = 0

    def record_release(self) -> None:
        """Account one privatised update leaving the enclave."""
        self.steps += 1

    @property
    def epsilon_basic(self) -> float:
        """Linear composition: ``steps * ε_step`` at total δ = steps·δ."""
        return self.steps * self.config.epsilon_per_step()


class GradientPrivatizer:
    """Clip-and-noise applied to aggregate updates inside the enclave.

    Parameters
    ----------
    config:
        Mechanism parameters.
    rng:
        Noise source (the enclave's generator in the real flow).
    """

    def __init__(self, config: DpConfig, rng: np.random.Generator | None = None) -> None:
        self.config = config
        self.ledger = PrivacyLedger(config)
        self._rng = rng or np.random.default_rng()

    def clip(self, update: np.ndarray) -> np.ndarray:
        """Scale the update down to L2 norm ``clip_norm`` when it exceeds it."""
        update = np.asarray(update, dtype=np.float64)
        norm = float(np.linalg.norm(update))
        if norm <= self.config.clip_norm or norm == 0.0:
            return update
        return update * (self.config.clip_norm / norm)

    def privatize(self, update: np.ndarray) -> np.ndarray:
        """Clip, add calibrated Gaussian noise, and account the release."""
        clipped = self.clip(update)
        noise_std = self.config.noise_multiplier * self.config.clip_norm
        noised = clipped + self._rng.normal(0.0, noise_std, size=clipped.shape)
        self.ledger.record_release()
        return noised

    def privatize_named(self, updates: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Privatise a whole parameter-keyed update dict as one release.

        The clip bound applies to the *joint* L2 norm across all tensors
        (one mechanism invocation, one ledger entry), matching how DP-SGD
        treats the full gradient vector.
        """
        if not updates:
            raise ConfigurationError("no updates to privatise")
        flat = np.concatenate([np.asarray(u, dtype=np.float64).ravel() for u in updates.values()])
        noised = self.privatize(flat)
        out: dict[str, np.ndarray] = {}
        offset = 0
        for key, value in updates.items():
            size = int(np.asarray(value).size)
            out[key] = noised[offset : offset + size].reshape(np.asarray(value).shape)
            offset += size
        return out
