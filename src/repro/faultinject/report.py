"""Campaign reporting: text and stable JSON.

The JSON schema is deliberately timestamp-free and fully ordered (pairs
in sweep order, cells in plan order, keys sorted) so that two campaigns
over the same configuration and toolchain produce byte-identical
reports — the determinism tests diff them directly, and CI can archive
them as artifacts without spurious churn.

Per-cell *observability counters* are derived differentially: the
re-executed instruction count is the cell's total minus the oracle's,
and the replayed-checkpoint count is the cell's commits minus the
oracle's — both measure pure crash-recovery overhead at that failure
point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .campaign import CampaignConfig, Judged, PairResult, env_name


@dataclass
class CampaignReport:
    """The full result of one :func:`~repro.faultinject.run_campaign`."""

    config: CampaignConfig
    pairs: List[PairResult] = field(default_factory=list)

    # -- verdict ---------------------------------------------------------
    @property
    def findings(self) -> List[Judged]:
        return [j for pair in self.pairs for j in pair.findings]

    @property
    def certified(self) -> bool:
        """True iff every pair's oracle is clean and every cell passed."""
        return all(pair.certified for pair in self.pairs)

    @property
    def cells(self) -> int:
        return sum(len(pair.judged) for pair in self.pairs)

    # -- JSON ------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "benches": list(self.config.benches),
                "envs": [env_name(env) for env in self.config.envs],
                "seed": self.config.seed,
                "event_cap": self.config.event_cap,
                "interior_points": self.config.interior_points,
                "post_restore": self.config.post_restore,
                "max_schedules": self.config.max_schedules,
                "interrupt_interval": self.config.interrupt_interval,
            },
            "certified": self.certified,
            "cells": self.cells,
            "findings": len(self.findings),
            "pairs": [_pair_dict(pair) for pair in self.pairs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- text ------------------------------------------------------------
    def render_text(self) -> str:
        lines = []
        for pair in self.pairs:
            verdicts: Dict[str, int] = {}
            for judged in pair.judged:
                verdicts[judged.verdict] = verdicts.get(judged.verdict, 0) + 1
            passed = verdicts.pop("pass", 0)
            summary = f"{passed}/{len(pair.judged)} schedules pass"
            if verdicts:
                summary += " (" + ", ".join(
                    f"{count} {verdict}"
                    for verdict, count in sorted(verdicts.items())
                ) + ")"
            oracle_note = "" if pair.oracle_clean else "  [ORACLE UNCLEAN]"
            lines.append(
                f"{pair.bench:>10s} × {pair.env:<18s} {summary}{oracle_note}"
            )
            for judged in pair.findings:
                schedule = ",".join(str(d) for d in judged.outcome.schedule)
                line = (f"{'':>10s}   FAIL schedule=({schedule}) "
                        f"{judged.verdict}: {judged.reason}")
                if judged.shrunk is not None and \
                        judged.shrunk != judged.outcome.schedule:
                    shrunk = ",".join(str(d) for d in judged.shrunk)
                    line += f"  [shrinks to ({shrunk})]"
                lines.append(line)
        verdict = "CERTIFIED" if self.certified else "NOT CERTIFIED"
        lines.append(
            f"campaign {verdict}: {self.cells - len(self.findings)}/"
            f"{self.cells} cells match the continuous-power oracle "
            f"({len(self.pairs)} pairs)"
        )
        return "\n".join(lines)


def _pair_dict(pair: PairResult) -> Dict[str, object]:
    oracle = pair.oracle
    events: Dict[str, int] = {}
    for kind, _cycle, _pc, _detail in oracle.events:
        events[kind] = events.get(kind, 0) + 1
    return {
        "bench": pair.bench,
        "env": pair.env,
        "certified": pair.certified,
        "oracle": {
            "memory_digest": oracle.memory_digest,
            "outputs_ok": oracle.outputs_ok,
            "war_clean": oracle.war_clean,
            "instructions": oracle.instructions,
            "cycles": oracle.cycles,
            "checkpoints": oracle.checkpoints,
            "events": events,
        },
        "cells": [_cell_dict(judged, pair) for judged in pair.judged],
    }


def _cell_dict(judged: Judged, pair: PairResult) -> Dict[str, object]:
    outcome = judged.outcome
    cell = {
        "schedule": list(outcome.schedule),
        "verdict": judged.verdict,
        "counters": {
            "instructions": outcome.instructions,
            "cycles": outcome.cycles,
            "checkpoints": outcome.checkpoints,
            "power_failures": outcome.power_failures,
            "boot_cycles": outcome.boot_cycles,
            "reexecuted_cycles": outcome.reexecuted_cycles,
            "reexecuted_instructions":
                outcome.instructions - pair.oracle.instructions,
            "checkpoints_replayed":
                outcome.checkpoints - pair.oracle.checkpoints,
        },
    }
    if judged.verdict != "pass":
        cell["reason"] = judged.reason
        cell["war_violations"] = outcome.war_violations
        if outcome.error:
            cell["error"] = outcome.error
        if judged.shrunk is not None:
            cell["shrunk"] = list(judged.shrunk)
    return cell


__all__ = ["CampaignReport"]
