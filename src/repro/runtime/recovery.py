"""Corrective action after an integrity failure (the paper's future work).

Section 4.4 ends with: "Once an integrity violation is detected, TEE may
perform additional corrective action, such as executing on another GPU
worker or perform additional redundant computations. But these actions are
outside the scope of our current work."  This module implements that scope
extension:

* :class:`RecoveringExecutor` retries a masked computation when the
  verifier flags it, quarantining suspected devices and re-encoding the
  virtual batch with fresh coefficients for the survivors;
* when localisation is impossible (a single redundant share detects but
  cannot name the culprit), it falls back to trial-exclusion: re-run with
  each device benched in turn until a consistent cluster is found.

The executor needs spare capacity: recovery from ``f`` byzantine devices
requires ``K + M + 1 + f`` GPUs in the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from repro.errors import IntegrityError
from repro.gpu import GpuCluster, ShareLaunch
from repro.masking import CoefficientSet, ForwardEncoder, IntegrityVerifier


@dataclass
class RecoveryReport:
    """What happened during a recovering execution."""

    attempts: int = 0
    quarantined: list = dataclass_field(default_factory=list)
    recovered: bool = False


class RecoveringExecutor:
    """Runs masked forward computations with detect-quarantine-retry.

    Parameters
    ----------
    cluster:
        Device pool; must exceed the share count for recovery headroom.
    rng:
        Enclave randomness for fresh coefficients per retry.
    max_retries:
        Abort after this many failed attempts (a fully-byzantine pool).
    """

    def __init__(self, cluster: GpuCluster, rng, max_retries: int = 4) -> None:
        if max_retries < 1:
            raise IntegrityError(f"max_retries must be >= 1, got {max_retries}")
        self.cluster = cluster
        self.rng = rng
        self.max_retries = max_retries
        self._quarantined: set[int] = set()

    @property
    def quarantined_devices(self) -> tuple[int, ...]:
        """Devices currently benched."""
        return tuple(sorted(self._quarantined))

    def _available_devices(self) -> list[int]:
        return [d for d in range(len(self.cluster)) if d not in self._quarantined]

    def _run_once(
        self,
        inputs_q: np.ndarray,
        k: int,
        m: int,
        launch: ShareLaunch,
        lineup: list[int],
        report: RecoveryReport,
    ):
        """One masked execution on ``lineup``; returns the verifier's verdict
        (a consistent one carries the verified decode).  The attempt's
        shares are released even when a kernel raises mid-line-up."""
        report.attempts += 1
        coeffs = CoefficientSet.generate(self.rng, k=k, m=m, extra_shares=1)
        encoded = ForwardEncoder(coeffs, self.rng).encode(inputs_q)
        try:
            for share_index, device_id in enumerate(lineup):
                self.cluster[device_id].receive_share(
                    launch.share_key, encoded.shares[share_index]
                )
            outputs, _ = self.cluster.map_shares(launch, lineup)
        finally:
            for device_id in lineup:
                self.cluster[device_id].drop_share(launch.share_key)
        return IntegrityVerifier(coeffs).verify_forward(outputs)

    def execute_forward(
        self,
        inputs_q: np.ndarray,
        k: int,
        m: int,
        launch: ShareLaunch,
    ) -> tuple[np.ndarray, RecoveryReport]:
        """Run the forward ``launch`` with verification.

        ``inputs_q`` is the quantized virtual batch ``(k, *features)``;
        ``launch.share_key`` prefixes the key each attempt's shares live
        under.  Returns the decoded true results and a
        :class:`RecoveryReport`.

        When verification fails without localisation, the executor performs
        *swap-and-test*: it re-runs with each lineup member replaced by a
        spare; a lineup that turns consistent convicts the swapped-out
        device (the only change between the runs), which is then benched.
        Innocent devices are never permanently quarantined.

        Raises
        ------
        IntegrityError
            When no consistent device subset can be found within the retry
            budget (or the pool lacks spare capacity to keep probing).
        """
        report = RecoveryReport()
        n_shares = k + m + 1  # always carry the redundant share
        for round_index in range(self.max_retries):
            devices = self._available_devices()
            if len(devices) < n_shares:
                raise IntegrityError(
                    f"only {len(devices)} trustworthy devices left;"
                    f" need {n_shares} (quarantined: {self.quarantined_devices})"
                )
            lineup = devices[:n_shares]
            attempt = replace(launch, share_key=f"{launch.share_key}/round{round_index}")
            verdict = self._run_once(inputs_q, k, m, attempt, lineup, report)
            if verdict.consistent:
                report.recovered = True
                return verdict.decoded, report
            if verdict.suspected_shares:
                for share_index in verdict.suspected_shares:
                    self._bench(lineup[share_index], report)
                continue
            # No localisation: swap each member for a spare and re-test.
            spares = devices[n_shares:]
            if not spares:
                raise IntegrityError(
                    "integrity failure persists and no spare device is"
                    " available for swap-and-test recovery"
                )
            convicted = False
            for swap_index, suspect in enumerate(lineup):
                trial_lineup = [d for d in lineup if d != suspect] + [spares[0]]
                trial = replace(attempt, share_key=f"{attempt.share_key}/swap{swap_index}")
                verdict = self._run_once(inputs_q, k, m, trial, trial_lineup, report)
                if verdict.consistent:
                    self._bench(suspect, report)
                    report.recovered = True
                    return verdict.decoded, report
                convicted = convicted or bool(verdict.suspected_shares)
            if not convicted:
                # Multiple colluding liars: bench the whole lineup and use
                # whatever capacity remains.
                for device_id in lineup:
                    self._bench(device_id, report)
        raise IntegrityError(
            f"no consistent GPU subset after {report.attempts} attempts;"
            f" quarantined {self.quarantined_devices}"
        )

    def _bench(self, device_id: int, report: RecoveryReport) -> None:
        if device_id not in self._quarantined:
            self._quarantined.add(device_id)
            report.quarantined.append(device_id)
