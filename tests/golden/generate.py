"""Regenerate the pre-refactor golden fixtures.

Run from the repository root::

    PYTHONPATH=src:tests python tests/golden/generate.py [FIXTURE ...]

where each ``FIXTURE`` is a file name below (default: all of them).

``war_diagnostics.json`` pins the *exact* diagnostics — codes, messages,
locations, related notes, and emission order — that the IR-level
(:mod:`repro.analysis.static_war`) and machine-level
(:mod:`repro.backend.mir_war`) verifiers produced **before** they were
refactored onto the shared :mod:`repro.analysis.dataflow` worklist
engine.  ``tests/test_dataflow_parity.py`` replays the same seeded-bug
configurations through the refactored verifiers and diffs the output
byte-for-byte: the refactor must be behaviour-preserving, not merely
"equivalent".

``placements.json`` pins every checkpoint position, middle end and back
end, of each paper benchmark under the placement environments
(:data:`PLACEMENT_ENVS`), as produced before WAR discovery and the
hitting set were rewritten onto the indexed engine and range-compressed
requirements.  ``tests/test_placement_golden.py`` recompiles them and
diffs the positions, so placement drift fails loudly instead of only
showing in code size.

``elisions.json`` pins the whole :class:`~repro.core.checkpoint_elim.
ElisionReport` of each elision cell (:func:`elision_cells`): how many
candidates were examined and elided, and every certificate with its
weight, sub-proof texts and progress bounds, including the violated
sub-proofs of force-elided checkpoints.  It was produced before the
elision trials learned to stop at the first violated sub-proof;
``tests/test_elision_golden.py`` recompiles every cell and diffs it.

Only regenerate a fixture when a *deliberate* change lands (new code,
reworded message, a placement rule); never to paper over a parity
failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from dataclasses import replace

from repro.benchsuite import BENCHMARKS, get_benchmark
from repro.core import ENVIRONMENTS, run_middle_end
from repro.core.lint import lint_module, strip_checkpoints
from repro.frontend import compile_sources
from repro.ir import verify_module

RMW_SOURCE = """
unsigned int counter;
unsigned int acc;
int main(void) {
    int i;
    for (i = 0; i < 8; i++) {
        counter = counter + 1;
        acc = acc + counter;
    }
    return 0;
}
"""

#: (case name, source(s), environment config, post-middle-end mutation)
def _cases():
    yield "rmw-plain", [RMW_SOURCE], ENVIRONMENTS["plain"], None
    yield ("rmw-wario-stripped", [RMW_SOURCE], ENVIRONMENTS["wario"],
           strip_checkpoints)
    yield ("rmw-ratchet-summaries-stripped", [RMW_SOURCE],
           ENVIRONMENTS["ratchet-summaries"], strip_checkpoints)
    for bench in sorted(BENCHMARKS):
        yield (f"{bench}-plain", [BENCHMARKS[bench].source],
               ENVIRONMENTS["plain"], None)
    yield ("crc-wario-dropck", [BENCHMARKS["crc"].source],
           replace(ENVIRONMENTS["wario"], name="wario-dropck",
                   drop_checkpoint=0), None)
    yield ("crc-ratchet-summaries-dropck", [BENCHMARKS["crc"].source],
           replace(ENVIRONMENTS["ratchet-summaries"],
                   name="ratchet-summaries-dropck", drop_checkpoint=0), None)
    # Instrumented middle end over an unprotected back end: the machine
    # level verifier must flag the raw pops / frame releases.
    yield ("crc-wario-plain-epilogue", [BENCHMARKS["crc"].source],
           replace(ENVIRONMENTS["wario"], name="wario-plain-epilogue",
                   epilogue_style="plain"), None)
    yield ("sha-ratchet-plain-epilogue", [BENCHMARKS["sha"].source],
           replace(ENVIRONMENTS["ratchet"], name="ratchet-plain-epilogue",
                   epilogue_style="plain"), None)


def case_diagnostics(sources, config, mutate):
    """Lint one seeded-bug configuration; diagnostics in emission order.

    Pinned to ``level="mir"``: the fixture certifies the *WAR verifiers*
    byte-for-byte across refactors, so the idempotence certifier's
    additional ``certify``-level diagnostics must stay out of it.
    """
    module = compile_sources(sources, "golden")
    verify_module(module)
    if mutate is None:
        result = lint_module(module, config, name="golden", level="mir")
    else:
        run_middle_end(module, config)
        mutate(module)
        result = lint_module(module, config, run_middle=False, name="golden",
                             level="mir")
    return [d.to_dict() for d in result.engine.diagnostics]


def unprotected_backend_diagnostics(sources, config):
    """Machine-level verdicts with the spill-checkpoint inserter disabled
    entirely: exposes raw spill WARs (``mir-war-forward``/``backward``)
    that every lintable configuration protects."""
    from repro.backend import lower_module
    from repro.backend.mir_war import verify_mmodule_war

    module = compile_sources(sources, "golden")
    verify_module(module)
    run_middle_end(module, config)
    mmodule = lower_module(
        module,
        spill_checkpoint_mode=None,
        epilogue_style="plain",
        entry_checkpoints=config.instrument,
    )
    engine = verify_mmodule_war(
        mmodule, module, alias_mode=config.alias_mode,
        calls_are_checkpoints=config.instrument,
    )
    return [d.to_dict() for d in engine.diagnostics]


def generate():
    fixtures = {
        name: case_diagnostics(sources, config, mutate)
        for name, sources, config, mutate in _cases()
    }
    fixtures["sha-wario-unprotected-backend"] = (
        unprotected_backend_diagnostics(
            [BENCHMARKS["sha"].source], ENVIRONMENTS["wario"]
        )
    )
    return fixtures


#: the environments whose checkpoint placement ``placements.json`` pins:
#: conservative and precise alias modes, the relaxed call model, and
#: elision on top of the inserter
PLACEMENT_ENVS = ("ratchet", "r-pdg", "wario", "wario-summaries", "wario-opt")


def checkpoint_positions(source, config):
    """Every checkpoint of one compile as ``"function:block:index:cause"``
    rows: the middle-end IR after ``run_middle_end`` and the machine IR
    after ``lower_module``, each in layout order."""
    from repro.backend import lower_module
    from repro.ir.instructions import Checkpoint

    module = compile_sources([source], "golden")
    verify_module(module)
    summaries = run_middle_end(module, config)
    middle = [
        f"{fn.name}:{block.name}:{idx}:{instr.cause}"
        for fn in module.defined_functions()
        for block in fn.blocks
        for idx, instr in enumerate(block.instructions)
        if isinstance(instr, Checkpoint)
    ]
    mmodule = lower_module(
        module,
        spill_checkpoint_mode=config.spill_checkpoint_mode,
        epilogue_style=config.epilogue_style,
        entry_checkpoints=config.instrument,
        transparent=(summaries.transparent_names()
                     if summaries is not None else None),
    )
    back = [
        f"{fn.name}:{block.name}:{idx}:{instr.cause}"
        for fn in mmodule.functions.values()
        for block in fn.blocks
        for idx, instr in enumerate(block.instructions)
        if instr.opcode == "checkpoint"
    ]
    return {"middle_end": middle, "back_end": back}


def generate_placements():
    return {
        f"{bench}/{env}": checkpoint_positions(BENCHMARKS[bench].source,
                                               ENVIRONMENTS[env])
        for bench in sorted(BENCHMARKS)
        for env in PLACEMENT_ENVS
    }


#: the certificate-guided elision environments ``elisions.json`` pins
ELISION_ENVS = ("wario-opt", "ratchet-opt")

#: (environment, program, ``force_unsafe_elision`` index) of the forced
#: cells; each force-elides a checkpoint whose sub-proofs are violated
#: (``xcall`` index 1 is the fault-injection campaign's mutant)
FORCED_ELISIONS = (
    ("wario-opt", "xcall", 1),
    ("wario-opt", "coremark", 0),
    ("wario-opt", "tiny-aes", 5),
    ("ratchet-opt", "sha", 0),
)


def elision_cells():
    """``(key, program, config)`` of every cell ``elisions.json`` pins:
    the paper benchmarks plus ``xcall`` under each elision environment,
    then the forced cells (keyed ``program/env+force=N``)."""
    for env in ELISION_ENVS:
        for bench in sorted(BENCHMARKS) + ["xcall"]:
            yield f"{bench}/{env}", get_benchmark(bench), ENVIRONMENTS[env]
    for env, bench, index in FORCED_ELISIONS:
        config = replace(ENVIRONMENTS[env], force_unsafe_elision=index)
        yield f"{bench}/{env}+force={index}", get_benchmark(bench), config


def elision_report(program, config):
    """The :class:`ElisionReport` of one compile, as a dict."""
    module = compile_sources([program.source], "golden")
    verify_module(module)
    run_middle_end(module, config)
    return module.elision_report.to_dict()


def generate_elisions():
    return {
        key: elision_report(program, config)
        for key, program, config in elision_cells()
    }


FIXTURES = {
    "war_diagnostics.json": generate,
    "placements.json": generate_placements,
    "elisions.json": generate_elisions,
}


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(FIXTURES):
        path = os.path.join(os.path.dirname(__file__), name)
        with open(path, "w") as handle:
            json.dump(FIXTURES[name](), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
