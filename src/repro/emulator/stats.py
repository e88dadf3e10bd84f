"""Execution statistics (paper §5.1.1, Performance Statistics Collection):
executed cycles, executed checkpoints and their causes, idempotent region
sizes, and power-failure/re-execution accounting."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List


@dataclass
class ExecutionStats:
    instructions: int = 0
    cycles: int = 0                      # total on-time cycles spent
    checkpoints: int = 0                 # executed checkpoints
    checkpoint_causes: Dict[str, int] = field(default_factory=dict)
    region_sizes: List[int] = field(default_factory=list)
    power_failures: int = 0
    boot_cycles: int = 0                 # cycles spent booting/restoring
    reexecuted_cycles: int = 0           # cycles lost to re-execution
    interrupts: int = 0
    halted: bool = False
    call_counts: Dict[str, int] = field(default_factory=dict)  # per callee
    #: cycles of the trailing partial region (last checkpoint → halt);
    #: not in ``region_sizes``, which only records committed checkpoints
    final_region_cycles: int = 0

    def copy(self) -> "ExecutionStats":
        """An independent copy (the containers are copied too)."""
        return replace(
            self,
            checkpoint_causes=dict(self.checkpoint_causes),
            region_sizes=list(self.region_sizes),
            call_counts=dict(self.call_counts),
        )

    def record_checkpoint(self, cause: str, region_cycles: int) -> None:
        self.checkpoints += 1
        self.checkpoint_causes[cause] = self.checkpoint_causes.get(cause, 0) + 1
        self.region_sizes.append(region_cycles)

    # -- region statistics (paper Figure 7) ------------------------------
    def region_percentile(self, q: float) -> float:
        data = sorted(self.region_sizes)
        if not data:
            return 0.0
        pos = (len(data) - 1) * q
        lower = int(pos)
        upper = min(lower + 1, len(data) - 1)
        frac = pos - lower
        return data[lower] * (1 - frac) + data[upper] * frac

    @property
    def region_median(self) -> float:
        return self.region_percentile(0.5)

    @property
    def region_mean(self) -> float:
        return sum(self.region_sizes) / len(self.region_sizes) if self.region_sizes else 0.0

    @property
    def region_max(self) -> int:
        return max(self.region_sizes) if self.region_sizes else 0

    @property
    def max_region_cycles(self) -> int:
        """Largest observed inter-checkpoint gap, *including* the
        trailing partial region that ends at halt rather than at a
        checkpoint (the quantity the static progress certifier bounds —
        see :mod:`repro.analysis.progress`)."""
        return max(self.region_max, self.final_region_cycles)

    def summary(self) -> str:
        causes = ", ".join(
            f"{k}={v}" for k, v in sorted(self.checkpoint_causes.items())
        )
        return (
            f"{self.instructions} instrs, {self.cycles} cycles, "
            f"{self.checkpoints} checkpoints ({causes}), "
            f"{self.power_failures} power failures"
        )
