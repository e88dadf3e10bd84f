"""The benchmark's three workloads, each a fixed list of ops.

An op is the workload's unit of work, run one at a time in-process with
``jobs=1``; the driver cycles through the list, so a run repeats ops.
Every op returns additive values (its share of the code-quality
counts, its phase times), how many items it checked and
how many failed, and a digest per item, so that repeats of an op,
runs, and traced against untraced runs can be compared exactly.

* ``compile`` — 21 ops, one per cell, each a cold compile plus a full
  certification: the six paper benchmarks under
  ``ratchet``/``wario``/``wario-opt`` at the default unroll factor, plus
  three unrolled ``wario`` cells, one at a seeded factor.
* ``campaign`` — set-up cold-compiles the 12 campaign programs, which
  warms the in-process program memo; the op runs a seeded
  fault-injection campaign over them with the disk cache off, so it
  compiles nothing.
* ``figures`` — the op regenerates Figure 4 and Table 3 into a fresh
  cache directory, cold (cache writes) then warm (cache reads).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import tempfile
import time
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.backend.disasm import disassemble
from repro.benchsuite import BENCHMARKS, clear_program_memo, compile_benchmark
from repro.cache import CompileCache
from repro.core import iclang, lint_sources
from repro.core.lint import diagnostics_json
from repro.core.pipeline import environment
from repro.emulator import Machine
from repro.eval import figures
from repro.eval.figures import cells_for
from repro.eval.runner import ExperimentRunner
from repro.faultinject.campaign import CampaignConfig, run_campaign

SUITE_ENVS = ("ratchet", "wario", "wario-opt")
#: the unrolled ``wario`` cells: coremark at the seeded factor, tiny-aes
#: and picojpeg at a fixed one, the lowest of the range.  The two large
#: cells set most of the pass's time and its peak RSS (picojpeg alone
#: spans 100-175 MB over N = 12-16), so drawing their factor would make
#: those metrics depend on the seed rather than on the code, and a
#: higher one would leave a run no time to repeat cells
UNROLL_RANGE = (12, 16)
SEEDED_UNROLL = "coremark"
FIXED_UNROLL = {"tiny-aes": 12, "picojpeg": 12}
LINT_BUDGET = 40000
CAMPAIGN_ENVS = ("wario", "wario-opt")
#: targeted events per kind; 1 keeps ~300 cells (about 14 s on a 2-vCPU
#: host, a quarter of the default campaign), so a run repeats the op
CAMPAIGN_EVENT_CAP = 1
FIGURE_EXPERIMENTS = ("fig4", "table3")

#: the code-quality counts, additive values whose per-pass sums are
#: end-to-end metrics (the driver times the ops itself)
PASS_COUNTS = ("checkpoints_executed", "emulated_cycles", "code_bytes")

Trace = Callable[[str], object]


def untraced(kind: str):
    return nullcontext()


@dataclass
class OpResult:
    """One op: additive values, checks and digests."""

    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)


def phase_metrics(values: Dict[str, float]) -> Dict[str, float]:
    """The phase times and rates of a pass's summed values (0 where a
    workload has no such phase)."""
    emulate_s = values.get("emulate_s", 0.0)
    campaign_s = values.get("campaign_s", 0.0)
    return {
        "compile_s": values.get("compile_s", 0.0),
        "emulated_minstr_per_s": (values.get("instructions", 0.0) / emulate_s
                                  / 1e6 if emulate_s else 0.0),
        "compile_unrolled_s": values.get("compile_unrolled_s", 0.0),
        "certify_s": values.get("certify_s", 0.0),
        "campaign_cells_per_s": (values.get("cells", 0.0) / campaign_s
                                 if campaign_s else 0.0),
        "eval_cold_s": values.get("eval_cold_s", 0.0),
        "eval_warm_s": values.get("eval_warm_s", 0.0),
    }


def program_digest(program) -> str:
    """sha256 over the listing, initial memory and symbol layout."""
    digest = hashlib.sha256(disassemble(program).encode())
    digest.update(program.initial_memory)
    digest.update(json.dumps([sorted(program.func_entry.items()),
                              sorted(program.global_addr.items())]).encode())
    return digest.hexdigest()


def verdict_digest(result) -> str:
    """sha256 over a lint verdict: diagnostics and all certificates."""
    payload = json.dumps({
        "certified": result.certified,
        "diagnostics": diagnostics_json([result]),
        "certificates": result.certificates,
        "progress": result.progress,
        "placement": result.placement,
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def outputs_match(bench, machine, expected) -> bool:
    for output in bench.outputs:
        got = machine.read_global(output.name, output.count, output.size,
                                  output.signed)
        if got != expected[output.name]:
            return False
    return True


def report_failure(label: str) -> None:
    print(f"perfbench: {label} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class CompileWorkload:
    """Cold compile + full certification, one cell per op."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cells: List[Tuple[str, str, Optional[int]]] = []
        self.expected: Dict[str, dict] = {}

    @staticmethod
    def draw(seed: int) -> Tuple[int, List[Tuple[str, str, Optional[int]]]]:
        """The seeded unroll factor and the shuffled cell list."""
        rng = random.Random(f"compile:{seed}")
        factor = rng.randint(*UNROLL_RANGE)
        cells = [(bench, env, None) for bench in BENCHMARKS for env in SUITE_ENVS]
        cells += [(bench, "wario", n) for bench, n in FIXED_UNROLL.items()]
        cells.append((SEEDED_UNROLL, "wario", factor))
        rng.shuffle(cells)
        return factor, cells

    def setup(self) -> None:
        self.factor, self.cells = self.draw(self.seed)
        self.expected = {name: bench.expected()
                         for name, bench in BENCHMARKS.items()}

    def op_list(self) -> List[str]:
        return [f"{b}/{e}" + (f"@N={n}" if n else "") for b, e, n in self.cells]

    def run_op(self, index: int, trace: Trace = untraced) -> OpResult:
        bench_name, env, unroll = self.cells[index]
        bench = BENCHMARKS[bench_name]
        label = self.op_list()[index]
        config = environment(env)
        if unroll is not None:
            config = replace(config, unroll_factor=unroll)
        with trace("compile"):
            t0 = time.perf_counter()
            program = iclang(bench.source, env, unroll_factor=unroll,
                             name=bench_name, cache=False)
            compile_s = time.perf_counter() - t0
        with trace("certify"):
            t0 = time.perf_counter()
            verdict = lint_sources(bench.source, config, name=bench_name,
                                   cache=False, level="full",
                                   budget=LINT_BUDGET)
            certify_s = time.perf_counter() - t0
        with trace("check"):
            machine = Machine(program, war_check=True)
            t0 = time.perf_counter()
            stats = machine.run(max_instructions=bench.max_instructions)
            emulate_s = time.perf_counter() - t0
        result = OpResult(attempted=1)
        if not (verdict.certified and stats.halted and machine.war.clean
                and outputs_match(bench, machine, self.expected[bench_name])):
            print(f"perfbench: {label}: certified={verdict.certified} "
                  f"war_clean={machine.war.clean} halted={stats.halted}",
                  file=sys.stderr)
            result.failed = 1
        result.values = {
            "compile_unrolled_s" if unroll else "compile_s": compile_s,
            "certify_s": certify_s,
            "emulate_s": emulate_s,
            "instructions": stats.instructions,
        }
        if unroll is None:
            # the code-quality counts are the paper's Table 1 and 2 shape:
            # the suite cells at the default factor, so no seed moves them
            result.values.update({
                "checkpoints_executed": stats.checkpoints,
                "emulated_cycles": stats.cycles,
                "code_bytes": program.text_size,
            })
        result.digests = {label: program_digest(program),
                          label + ":lint": verdict_digest(verdict)}
        return result


class CampaignWorkload:
    """A seeded fault-injection campaign over programs compiled in set-up."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Compile the campaign's programs cold into the program memo."""
        self.config = CampaignConfig(benches=tuple(BENCHMARKS),
                                     envs=CAMPAIGN_ENVS, seed=self.seed,
                                     event_cap=CAMPAIGN_EVENT_CAP, jobs=1)
        self.pairs = [(bench, env) for bench in self.config.benches
                      for env in self.config.envs]
        clear_program_memo()
        programs = [compile_benchmark(BENCHMARKS[bench], env, cache=False)
                    for bench, env in self.pairs]
        self.code_bytes = sum(program.text_size for program in programs)
        self.digests = {f"{bench}/{env}": program_digest(program)
                        for (bench, env), program in zip(self.pairs, programs)}

    def op_list(self) -> List[str]:
        return [f"run_campaign(benches=all six, envs={list(CAMPAIGN_ENVS)}, "
                f"seed={self.seed}, event_cap={CAMPAIGN_EVENT_CAP}, jobs=1, "
                "cache=False)"]

    def run_op(self, index: int, trace: Trace = untraced) -> OpResult:
        result = OpResult()
        with trace("campaign"):
            t0 = time.perf_counter()
            report = run_campaign(self.config, cache=False)
            campaign_s = time.perf_counter() - t0
        instructions = checkpoints = cycles = 0
        for pair in report.pairs:
            result.attempted += 1 + len(pair.judged)
            if not pair.oracle_clean:
                print(f"perfbench: oracle {pair.bench}/{pair.env} unclean",
                      file=sys.stderr)
                result.failed += 1
            for judged in pair.findings:
                print(f"perfbench: {pair.bench}/{pair.env} "
                      f"{judged.outcome.schedule}: {judged.verdict}",
                      file=sys.stderr)
            result.failed += len(pair.findings)
            instructions += pair.oracle.instructions + sum(
                j.outcome.instructions for j in pair.judged)
            checkpoints += pair.oracle.checkpoints
            cycles += pair.oracle.cycles
        result.values = {
            "checkpoints_executed": checkpoints,
            "emulated_cycles": cycles,
            "code_bytes": self.code_bytes,
            "campaign_s": campaign_s,
            "cells": report.cells,
            "emulate_s": campaign_s,
            "instructions": instructions,
        }
        result.digests = dict(self.digests)
        result.digests["report"] = hashlib.sha256(
            report.to_json().encode()).hexdigest()
        return result


class FiguresWorkload:
    """Figure 4 + Table 3, cold then warm, into a fresh cache directory."""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed            # recorded only: the grid is fixed
        self.scratch = scratch

    def setup(self) -> None:
        self.cells = cells_for(*FIGURE_EXPERIMENTS)
        self.programs = list(dict.fromkeys(
            (cell.bench, cell.env, cell.unroll) for cell in self.cells))

    def op_list(self) -> List[str]:
        return [f"compile {len(self.programs)} programs, prefetch "
                f"{len(self.cells)} cells of {'+'.join(FIGURE_EXPERIMENTS)} "
                "and render, cold then warm"]

    @staticmethod
    def render(runner) -> str:
        # module attribute lookups, so a tracer wrapper is seen
        return figures.render_figure4(runner) + "\n" + figures.render_table3(runner)

    def run_op(self, index: int, trace: Trace = untraced) -> OpResult:
        result = OpResult()
        directory = tempfile.mkdtemp(prefix="figures-", dir=self.scratch)
        try:
            clear_program_memo()
            store = CompileCache(directory)
            start = time.perf_counter()
            code = 0
            with trace("compile"):
                for bench, env, unroll in self.programs:
                    program = compile_benchmark(BENCHMARKS[bench], env,
                                                unroll or None, cache=store)
                    code += program.text_size
                    result.digests[f"{bench}/{env}"] = program_digest(program)
            compile_s = time.perf_counter() - start
            with trace("eval_cold"):
                runner = ExperimentRunner(jobs=1, cache=store)
                t0 = time.perf_counter()
                runner.prefetch(self.cells)
                prefetch_s = time.perf_counter() - t0
                cold = self.render(runner)
            cold_s = time.perf_counter() - start
            instructions = checkpoints = cycles = 0
            for cell in self.cells:
                run = runner.run(cell.bench, cell.env, cell.unroll or None,
                                 power_key=cell.power_key)
                result.attempted += 1
                if not run.outputs_ok:
                    result.failed += 1
                instructions += run.stats.instructions
                if cell.power_key == "continuous":
                    checkpoints += run.stats.checkpoints
                    cycles += run.stats.cycles
            # the warm pass starts from the cache directory alone: no cold
            # program, result or cache object stays alive in the process
            del runner, store, program
            clear_program_memo()
            gc.collect()
            warm_store = CompileCache(directory)
            t0 = time.perf_counter()
            with trace("eval_warm"):
                warm_runner = ExperimentRunner(jobs=1, cache=warm_store)
                warm_runner.prefetch(self.cells)
                warm = self.render(warm_runner)
            warm_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        looked_up = warm_store.hits + warm_store.misses
        warm_hit_ratio = warm_store.hits / looked_up if looked_up else 0.0
        result.attempted += 2
        if warm != cold:
            print("perfbench: warm render differs from cold", file=sys.stderr)
            result.failed += 1
        if warm_hit_ratio != 1.0:
            print(f"perfbench: warm hit ratio {warm_hit_ratio}", file=sys.stderr)
            result.failed += 1
        result.digests["render"] = hashlib.sha256(cold.encode()).hexdigest()
        result.values = {
            "checkpoints_executed": checkpoints,
            "emulated_cycles": cycles,
            "code_bytes": code,
            "compile_s": compile_s,
            "eval_cold_s": cold_s,
            "eval_warm_s": warm_s,
            "emulate_s": prefetch_s,
            "instructions": instructions,
        }
        return result


def make_workload(name: str, seed: int, scratch: str):
    if name == "compile":
        return CompileWorkload(seed)
    if name == "campaign":
        return CampaignWorkload(seed)
    if name == "figures":
        return FiguresWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; "
                     f"choose from compile, campaign, figures")
