"""Power supply models (paper §5.1.4).

A supply is an iterator of *on-durations* in clock cycles: the device
runs for that many cycles, then the capacitor is empty and the device
browns out until the next period.  Three models:

* :class:`ContinuousPower` — never fails (execution-time measurements).
* :class:`FixedPeriodPower` — a fixed on-duration, repeated (the paper's
  50k/100k/1M/5M-cycle rows of Table 3).
* :class:`TracePower` — a seeded synthetic stand-in for the Mementos RF
  energy-harvesting voltage traces [47]: log-uniform bursty on-times.
  ``trace_a`` is the choppier of the two (short on-times dominate);
  ``trace_b`` has longer charge cycles.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List


class PowerSupply:
    """Base class: iterate on-durations (cycles)."""

    name = "abstract"

    def on_durations(self) -> Iterator[int]:
        raise NotImplementedError

    @property
    def is_continuous(self) -> bool:
        return False


class ContinuousPower(PowerSupply):
    name = "continuous"

    def on_durations(self) -> Iterator[int]:
        while True:
            yield 1 << 62

    @property
    def is_continuous(self) -> bool:
        return True


class FixedPeriodPower(PowerSupply):
    """A fixed power-on period, repeated until the program completes."""

    def __init__(self, cycles: int):
        if cycles <= 0:
            raise ValueError("power-on period must be positive")
        self.cycles = cycles
        self.name = f"fixed-{cycles}"

    def on_durations(self) -> Iterator[int]:
        while True:
            yield self.cycles


class TracePower(PowerSupply):
    """Synthetic energy-harvesting trace.

    On-durations are drawn log-uniformly from [min_cycles, max_cycles]
    with a deterministic seed, replicating the bursty mix of very short
    and long on-times seen in the Mementos RF traces.
    """

    def __init__(
        self,
        seed: int,
        min_cycles: int = 20_000,
        max_cycles: int = 2_000_000,
        name: str = "trace",
    ):
        self.seed = seed
        self.min_cycles = min_cycles
        self.max_cycles = max_cycles
        self.name = name

    def on_durations(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        lo, hi = math.log(self.min_cycles), math.log(self.max_cycles)
        while True:
            yield int(math.exp(rng.uniform(lo, hi)))

    def sample(self, count: int) -> List[int]:
        gen = self.on_durations()
        return [next(gen) for _ in range(count)]


class SuddenDropPower(PowerSupply):
    """A mostly-regular supply with occasional abrupt brown-outs.

    Models the paper's §6 observation about Just-In-Time checkpointing:
    "the incoming energy can be highly unpredictable ... the configured
    voltage level does not directly correlate to the amount of execution
    time left".  Every ``drop_every``-th period ends after only
    ``drop_cycles`` instead of ``base_cycles`` — faster than a
    comparator threshold calibrated for the regular periods can fire.
    """

    def __init__(self, base_cycles: int, drop_every: int = 4, drop_cycles: int = 2000):
        if drop_cycles >= base_cycles:
            raise ValueError("the drop must be shorter than the base period")
        if drop_every <= 0:
            raise ValueError("drop_every must be positive")
        self.base_cycles = base_cycles
        self.drop_every = drop_every
        self.drop_cycles = drop_cycles
        # Canonical key: every parameter is part of the name, so two
        # supplies with the same base/drop but different cadence can
        # never collide in result or cache keys, and
        # ``power_from_key(name)`` round-trips.
        self.name = f"sudden-drop-{base_cycles}-{drop_every}-{drop_cycles}"

    def on_durations(self) -> Iterator[int]:
        n = 0
        while True:
            n += 1
            yield self.drop_cycles if n % self.drop_every == 0 else self.base_cycles


class SchedulePower(PowerSupply):
    """Replay an explicit, finite failure schedule.

    ``durations`` is the sequence of power-on periods, in cycles, each of
    which ends in a power failure; after the schedule is exhausted the
    supply is continuous, so the program always runs to completion.  This
    is the deterministic building block of the fault-injection campaign
    (:mod:`repro.faultinject`): a schedule of ``k`` durations aims
    exactly ``k`` failures at chosen cumulative on-time offsets.

    Note that after each failure the boot + restore path consumes
    ``boot_cycles + restore_cycles`` out of the *next* period, so a
    second failure "δ cycles after the restore" is the two-point schedule
    ``(c, boot + restore + δ)``.
    """

    def __init__(self, durations):
        durations = tuple(int(d) for d in durations)
        if not durations:
            raise ValueError("a failure schedule needs at least one period")
        if any(d <= 0 for d in durations):
            raise ValueError("power-on periods must be positive")
        self.durations = durations
        self.name = "schedule-" + "-".join(str(d) for d in durations)

    def on_durations(self) -> Iterator[int]:
        yield from self.durations
        while True:
            yield 1 << 62


def trace_a() -> TracePower:
    """The choppier measured-trace stand-in (short charge cycles)."""
    return TracePower(seed=0xA11CE, min_cycles=30_000, max_cycles=1_500_000, name="trace-a")


def trace_b() -> TracePower:
    """The calmer measured-trace stand-in (long charge cycles)."""
    return TracePower(seed=0xB0B, min_cycles=200_000, max_cycles=8_000_000, name="trace-b")
