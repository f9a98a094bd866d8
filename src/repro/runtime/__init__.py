"""DarKnight orchestration: config, backend, trainer."""

from repro.runtime.config import DarKnightConfig
from repro.runtime.darknight import DarKnightBackend
from repro.runtime.dp import DpConfig, GradientPrivatizer, PrivacyLedger
from repro.runtime.recovery import RecoveringExecutor, RecoveryReport
from repro.runtime.trainer import Trainer, TrainingHistory

__all__ = [
    "DarKnightConfig",
    "DarKnightBackend",
    "Trainer",
    "TrainingHistory",
    "RecoveringExecutor",
    "RecoveryReport",
    "DpConfig",
    "GradientPrivatizer",
    "PrivacyLedger",
]
