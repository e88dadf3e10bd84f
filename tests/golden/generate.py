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

``manifest.json`` pins what each compile produces and does, cell by
cell (:func:`manifest_row`): the sha256 of the program image, its code
bytes and elision count, the executed checkpoints, cycles, halt and WAR
verdict of a WAR-checked continuous-power run, and the sha256 of the
full-level lint verdict with its certificates.  Its ``grid`` section
(:data:`MANIFEST_ENVS`) is recomputed by ``tests/test_manifest_golden.py``;
its ``wide`` section (:func:`wide_cells`) only by ``--check``, and so is
its ``campaigns`` section (:func:`generate_campaigns`): the sha256 and
per-verdict cell counts of the ``inject --quick``, ``--differential
--quick`` and ``--progress --quick`` JSON reports.  Its ``seeded``
section (:func:`seeded_cells`) pins the full-level verdict and error
codes of every instrumented cell that violates WAR-freedom on purpose,
so the certifiers' violated paths stay pinned too;
``tests/test_manifest_golden.py`` recomputes it.  Its ``cli`` section
(:func:`generate_cli`) holds the exit code and the sha256 of the output
of each of :data:`CLI_INVOCATIONS`, so the CLI renderers stay pinned;
``tests/test_manifest_golden.py`` recomputes it.

Only regenerate a fixture when a *deliberate* change lands (new code,
reworded message, a placement rule); never to paper over a parity
failure.  To check instead of write::

    PYTHONPATH=src:tests python tests/golden/generate.py --check [FIXTURE ...]

regenerates the fixtures in memory, names every entry that differs from
the committed file, and exits 1 if any does.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from dataclasses import replace

from repro.benchsuite import BENCHMARKS, get_benchmark
from repro.core import ENVIRONMENTS, build, lower, run_middle_end
from repro.core.lint import certify, diagnostics_json, strip_checkpoints
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


def case_build(sources, config, mutate):
    """The build of one seeded-bug configuration: ``mutate`` (when set)
    edits the IR between the middle end and lowering."""
    module = compile_sources(sources, "golden")
    verify_module(module)
    if mutate is None:
        return build(module, config)
    summaries = run_middle_end(module, config)
    mutate(module)
    return lower(module, config, summaries)


def case_diagnostics(sources, config, mutate):
    """Lint one seeded-bug configuration; diagnostics in emission order.

    Pinned to ``level="mir"``: the fixture certifies the *WAR verifiers*
    byte-for-byte across refactors, so the idempotence certifier's
    additional ``certify``-level diagnostics must stay out of it.
    """
    result = certify(case_build(sources, config, mutate), level="mir")
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
    after ``lower``, each in layout order."""
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
    mmodule = lower(module, config, summaries).mmodule
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


#: the environments of the manifest's tier-1 grid: no instrumentation,
#: both alias precisions, the relaxed call model and elision on top
MANIFEST_ENVS = ("plain", "ratchet", "wario", "wario-summaries",
                 "wario-opt", "ratchet-opt")

#: the programs of every manifest cell
MANIFEST_PROGRAMS = tuple(sorted(BENCHMARKS)) + ("xcall",)


def grid_cells():
    """``(key, program, config)`` of the manifest's tier-1 grid."""
    for bench in MANIFEST_PROGRAMS:
        for env in MANIFEST_ENVS:
            yield f"{bench}/{env}", get_benchmark(bench), ENVIRONMENTS[env]


#: the environments and budgets of the manifest's region-bound rows
REGION_BOUND_ENVS = ("wario", "wario-summaries", "ratchet")
REGION_BOUND_BUDGETS = (600, 2000)


def wide_cells():
    """``(key, program, config)`` of the cells only ``--check`` recomputes:
    the environments the grid leaves out, ``wario`` at unroll 4 and 12,
    the region-bound pass at each of :data:`REGION_BOUND_BUDGETS`, and the
    forced cells of ``elisions.json``."""
    for bench in MANIFEST_PROGRAMS:
        for env in ENVIRONMENTS:
            if env not in MANIFEST_ENVS:
                yield f"{bench}/{env}", get_benchmark(bench), ENVIRONMENTS[env]
        for unroll in (4, 12):
            config = replace(ENVIRONMENTS["wario"], unroll_factor=unroll)
            yield f"{bench}/wario+unroll={unroll}", get_benchmark(bench), config
        for env in REGION_BOUND_ENVS:
            for budget in REGION_BOUND_BUDGETS:
                config = replace(ENVIRONMENTS[env], max_region_cycles=budget)
                yield (f"{bench}/{env}+max_region_cycles={budget}",
                       get_benchmark(bench), config)
    for env, bench, index in FORCED_ELISIONS:
        config = replace(ENVIRONMENTS[env], force_unsafe_elision=index)
        yield f"{bench}/{env}+force={index}", get_benchmark(bench), config


def program_digest(program):
    """sha256 over the listing, initial memory and symbol layout."""
    from repro.backend.disasm import disassemble

    digest = hashlib.sha256(disassemble(program).encode())
    digest.update(program.initial_memory)
    digest.update(json.dumps([sorted(program.func_entry.items()),
                              sorted(program.global_addr.items())]).encode())
    return digest.hexdigest()


def verdict_digest(result):
    """sha256 over a lint verdict: diagnostics as JSON and SARIF, and the
    idempotence, progress and placement certificates."""
    from repro.diagnostics import render_sarif

    payload = json.dumps({
        "certified": result.certified,
        "diagnostics": diagnostics_json([result]),
        "sarif": render_sarif(result.engine.diagnostics),
        "certificates": result.certificates,
        "progress": result.progress,
        "placement": result.placement,
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def manifest_row(program, config):
    """One manifest row: one build, its full-level verdict, its program,
    and a WAR-checked continuous-power run of that program."""
    from repro.emulator import Machine

    module = compile_sources([program.source], program.name)
    verify_module(module)
    cell = build(module, config)
    verdict = certify(cell)
    image = cell.encode()
    machine = Machine(image, war_check=True)
    stats = machine.run(max_instructions=program.max_instructions)
    return {
        "program": program_digest(image),
        "text_size": image.text_size,
        "elisions": image.elisions,
        "checkpoints": stats.checkpoints,
        "cycles": stats.cycles,
        "halted": stats.halted,
        "war_clean": machine.war.clean,
        "verdict": verdict_digest(verdict),
    }


def seeded_cells():
    """``(key, sources, config, mutate)`` of the manifest's ``seeded``
    section: the instrumented cases of ``war_diagnostics.json`` with their
    mutations, and the fault-injection campaign's seeded ``xcall``
    mutants that ``wide`` lacks (it pins the forced elision)."""
    from repro.faultinject.differential import _mutant_cells

    for name, sources, config, mutate in _cases():
        if config.instrument:
            yield name, sources, config, mutate
    for bench, config in _mutant_cells():
        if config.force_unsafe_elision is None:
            yield (f"{bench}/{config.name}", [get_benchmark(bench).source],
                   config, None)


def seeded_row(sources, config, mutate):
    """One ``seeded`` row: the full-level verdict of a cell that violates
    WAR-freedom, and the sorted codes of its error diagnostics."""
    from repro.diagnostics import ERROR

    result = certify(case_build(sources, config, mutate))
    return {
        "verdict": verdict_digest(result),
        "errors": sorted({d.code for d in result.engine.diagnostics
                          if d.severity == ERROR}),
    }


def generate_seeded():
    return {key: seeded_row(sources, config, mutate)
            for key, sources, config, mutate in seeded_cells()}


def campaign_row(report, verdicts):
    """One ``campaigns`` row: the sha256 of the JSON report as ``-o``
    writes it, and how many cells got each verdict."""
    counts = {}
    for verdict in verdicts:
        counts[verdict] = counts.get(verdict, 0) + 1
    return {
        "sha256": hashlib.sha256((report.to_json() + "\n").encode()).hexdigest(),
        "verdicts": counts,
    }


def generate_campaigns():
    """The three quick campaigns of ``repro inject``, in process and with
    the cache off."""
    from repro.faultinject import (
        quick_config,
        quick_differential_config,
        quick_progress_config,
        run_campaign,
        run_differential,
        run_progress_differential,
    )

    campaign = run_campaign(quick_config(jobs=1), cache=False)
    differential = run_differential(quick_differential_config(jobs=1),
                                    cache=False)
    progress = run_progress_differential(quick_progress_config(), cache=False)
    return {
        "inject --quick": campaign_row(campaign, [
            judged.verdict for pair in campaign.pairs for judged in pair.judged
        ]),
        "inject --differential --quick": campaign_row(differential, [
            cell.agreement for cell in differential.cells
        ]),
        "inject --progress --quick": campaign_row(progress, [
            cell.agreement for cell in progress.cells
        ]),
    }


#: the program the ``cli`` section compiles and lints, as ``prog.c``
CLI_SOURCE = """
unsigned int acc[4]; unsigned int total;
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 4; i++) { acc[i] = acc[i] + 2; t += acc[i]; }
    total = t;
    return 0;
}
"""

#: the ``repro`` command lines of the ``cli`` section; the output of one
#: that writes ``-o listing.txt`` is that file, of the others their stdout
CLI_INVOCATIONS = (
    "compile prog.c --env wario -o listing.txt",
    "compile prog.c --env ratchet",
    "lint --benchmark crc --env wario --level ir --format json",
    "lint prog.c --env plain --level ir --format json",
    "envs -o json",
    "analyze --benchmark crc --format json",
)


def cli_row(command):
    """One ``cli`` row: the exit code of ``python -m repro <command>`` and
    the sha256 of its output, run in process with the cache off from a
    temporary directory holding :data:`CLI_SOURCE` as ``prog.c``, so no
    absolute path reaches the output."""
    import contextlib
    import io
    import tempfile
    from unittest import mock

    from repro.__main__ import main as repro_main

    argv = command.split()
    cwd = os.getcwd()
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.dict(os.environ, {"REPRO_CACHE": "0"}):
        os.chdir(directory)
        try:
            with open("prog.c", "w") as handle:
                handle.write(CLI_SOURCE)
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = repro_main(argv)
            if "listing.txt" in argv:
                with open("listing.txt", "rb") as handle:
                    output = handle.read()
            else:
                output = stdout.getvalue().encode()
        finally:
            os.chdir(cwd)
    return {"exit": code, "sha256": hashlib.sha256(output).hexdigest()}


def generate_cli():
    return {command: cli_row(command) for command in CLI_INVOCATIONS}


def generate_manifest():
    manifest = {
        section: {key: manifest_row(program, config)
                  for key, program, config in cells()}
        for section, cells in (("grid", grid_cells), ("wide", wide_cells))
    }
    manifest["seeded"] = generate_seeded()
    manifest["campaigns"] = generate_campaigns()
    manifest["cli"] = generate_cli()
    return manifest


FIXTURES = {
    "war_diagnostics.json": generate,
    "placements.json": generate_placements,
    "elisions.json": generate_elisions,
    "manifest.json": generate_manifest,
}


def differing_entries(committed, fresh, path=""):
    """The paths of every entry where ``fresh`` differs from ``committed``,
    descending through nested objects."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        found = []
        for key in sorted(set(committed) | set(fresh)):
            found += differing_entries(committed.get(key), fresh.get(key),
                                       f"{path}/{key}" if path else key)
        return found
    return [] if committed == fresh else [path]


def main(argv):
    check = "--check" in argv
    names = [arg for arg in argv if arg != "--check"] or sorted(FIXTURES)
    unknown = sorted(set(names) - set(FIXTURES))
    if unknown:
        print(f"unknown fixture(s) {unknown}; choose from {sorted(FIXTURES)}")
        return 2
    failed = False
    for name in names:
        path = os.path.join(os.path.dirname(__file__), name)
        fresh = FIXTURES[name]()
        if not check:
            with open(path, "w") as handle:
                json.dump(fresh, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")
            continue
        with open(path) as handle:
            committed = json.load(handle)
        # a JSON round trip, so tuples compare equal to committed lists
        diffs = differing_entries(committed, json.loads(json.dumps(fresh)))
        for entry in diffs:
            print(f"{name}: {entry} differs")
        print(f"{name}: {'FAILED' if diffs else 'ok'}")
        failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
