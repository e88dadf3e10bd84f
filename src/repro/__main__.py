"""The ``iclang`` command-line driver (paper §4.6), as a CLI.

Usage::

    python -m repro compile program.c --env wario -o listing.txt
    python -m repro run program.c --env wario --power 50000 --verify-war
    python -m repro run program.c --env ratchet --print-globals acc,total
    python -m repro lint program.c --env wario
    python -m repro lint --benchmark all --env wario-expander --format json
    python -m repro analyze --benchmark all --env wario-summaries
    python -m repro inject --quick -o report.json
    python -m repro cache stats -o json
    python -m repro bench --quick
    python -m repro envs -o json

``compile`` prints (or writes) a disassembly listing plus size/static
statistics; ``run`` executes on the emulator and reports execution
statistics (both exit 2 when the program fails to compile, as ``lint``
does, and ``run`` also on a bad ``--power`` or ``--print-globals``
value); ``lint`` statically certifies WAR-freedom (exit 0 clean,
1 diagnostics of severity error, 2 compile failure); ``analyze`` dumps
the interprocedural points-to sets, mod/ref summaries and every
precision-loss cause (exit 2 on a compile failure); ``inject`` runs the
deterministic power-failure fault-injection campaign and differentially
certifies crash consistency against the continuous-power oracle (exit 0
certified, 1 findings, 2 campaign failure — see
``docs/FAULT_INJECTION.md``); ``cache`` inspects or clears the
content-addressed compile cache; ``bench`` measures the toolchain's own
performance (see ``docs/PERFORMANCE.md``); ``envs`` lists the available
software environments.  The golden manifest's ``cli`` section
(``tests/golden/generate.py``) pins the output bytes of the ``compile``,
``lint --format json``, ``analyze --format json`` and ``envs -o json``
renderers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .core import ENVIRONMENTS, iclang
from .core.lint import (
    EXIT_CLEAN,
    EXIT_COMPILE_FAILED,
    EXIT_ERRORS,
    lint_benchmarks,
    lint_sources,
)
from .diagnostics import render_sarif
from .emulator import (
    EmulationError,
    FixedPeriodPower,
    Machine,
    trace_a,
    trace_b,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="WARio reproduction: compile mini-C for intermittent execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="compile and disassemble")
    compile_p.add_argument("sources", nargs="+", help="mini-C source files")
    compile_p.add_argument("--env", default="wario", help="software environment")
    compile_p.add_argument("--unroll", type=int, default=None,
                           help="Loop Write Clusterer unroll factor N")
    compile_p.add_argument("-o", "--output", default=None,
                           help="write the listing to a file instead of stdout")

    run_p = sub.add_parser("run", help="compile and execute on the emulator")
    run_p.add_argument("sources", nargs="+")
    run_p.add_argument("--env", default="wario")
    run_p.add_argument("--unroll", type=int, default=None)
    run_p.add_argument("--power", default=None,
                       help="'continuous' (default), a fixed on-period in "
                            "cycles, 'trace-a', or 'trace-b'")
    run_p.add_argument("--verify-war", action="store_true",
                       help="check every memory access for WAR violations")
    run_p.add_argument("--interrupt-interval", type=int, default=None,
                       help="fire a timer interrupt every N cycles")
    run_p.add_argument("--print-globals", default=None,
                       help="comma-separated globals to print after the run "
                            "(append :COUNT for arrays, e.g. acc:16)")
    run_p.add_argument("--max-instructions", type=int, default=50_000_000)

    lint_p = sub.add_parser(
        "lint",
        help="statically certify WAR-freedom and per-region idempotence",
    )
    lint_p.add_argument("sources", nargs="*", help="mini-C source files")
    lint_p.add_argument("--benchmark", default=None, metavar="NAME",
                        help="lint a benchsuite program instead of files "
                             "('all' for the whole suite)")
    lint_p.add_argument("--env", default="wario")
    lint_p.add_argument("--level", choices=("ir", "mir", "full"),
                        default="full",
                        help="certification depth: 'ir' middle-end WAR "
                             "verifier only, 'mir' adds the back-end stack "
                             "verifiers, 'full' adds the idempotence "
                             "certifier (default)")
    lint_p.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    lint_p.add_argument("--budget", type=int, default=None, metavar="CYCLES",
                        help="per-region cycle budget for the forward-"
                             "progress certifier (level full): unbounded "
                             "regions become errors, and any region whose "
                             "machine-level worst case exceeds CYCLES "
                             "raises progress-budget-exceeded")
    lint_p.add_argument("--certificates", default=None, metavar="PATH",
                        help="write the per-function idempotence and "
                             "forward-progress certificates (JSON) to PATH")

    analyze_p = sub.add_parser(
        "analyze",
        help="dump points-to sets, mod/ref summaries and precision losses",
    )
    analyze_p.add_argument("sources", nargs="*", help="mini-C source files")
    analyze_p.add_argument("--benchmark", default=None, metavar="NAME",
                          help="analyze a benchsuite program instead of "
                               "files ('all' for the whole suite)")
    analyze_p.add_argument("--env", default="wario-summaries")
    analyze_p.add_argument("--format", choices=("text", "json"),
                          default="text")

    inject_p = sub.add_parser(
        "inject",
        help="deterministic power-failure fault injection with "
             "differential crash-consistency certification",
    )
    inject_p.add_argument("--bench", action="append", default=None,
                          metavar="NAME",
                          help="benchmark to sweep (repeatable; default: "
                               "the full suite, or crc+sha with --quick)")
    inject_p.add_argument("--env", action="append", default=None,
                          metavar="NAME",
                          help="software environment to sweep (repeatable; "
                               "default: wario and ratchet)")
    inject_p.add_argument("--quick", action="store_true",
                          help="CI-sized campaign: two benchmarks, small "
                               "schedule budgets")
    inject_p.add_argument("--seed", type=int, default=0,
                          help="campaign seed for the interior-point RNG")
    inject_p.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS or "
                               "the CPU count)")
    inject_p.add_argument("--budget", type=int, default=0, metavar="N",
                          help="cap the planned schedules per pair "
                               "(0 = unlimited)")
    inject_p.add_argument("--event-cap", type=int, default=None, metavar="N",
                          help="max targeted events per kind")
    inject_p.add_argument("--differential", action="store_true",
                          help="cross-validate the static idempotence "
                               "certifier against the campaign over the "
                               "same cells (clean matrix + seeded "
                               "mutants); --quick selects the CI-sized "
                               "cell set")
    inject_p.add_argument("--progress", action="store_true",
                          help="cross-validate the static forward-"
                               "progress certifier: observed inter-"
                               "checkpoint gaps vs. static bounds, "
                               "tightness per cell, and the starvation "
                               "cross-check; --quick selects the "
                               "CI-sized cell set")
    inject_p.add_argument("--format", choices=("text", "json"),
                          default="text")
    inject_p.add_argument("-o", "--output", default=None,
                          help="also write the JSON report to a file")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the content-addressed compile cache"
    )
    cache_p.add_argument("action", choices=("stats", "clear"),
                         help="'stats' prints entry counts and staleness; "
                              "'clear' removes every entry")
    cache_p.add_argument("-o", "--format", dest="format",
                         choices=("text", "json"), default="text",
                         help="stats output format (json includes the live "
                              "hit/miss/store counters)")

    bench_p = sub.add_parser(
        "bench", help="measure toolchain performance, write BENCH_<rev>.json"
    )
    bench_p.add_argument("--quick", action="store_true",
                         help="small CI-sized run (one benchmark, fig4 only)")
    bench_p.add_argument("-o", "--output", default=None,
                         help="report path (default: BENCH_<git rev>.json)")

    envs_p = sub.add_parser("envs", help="list the software environments")
    envs_p.add_argument("-o", "--format", dest="format",
                        choices=("text", "json"), default="text",
                        help="output format (json lists every public "
                             "config field of each environment)")

    return parser


def _power_from(spec):
    """The supply ``--power`` names; a ``ValueError`` names a bad one."""
    if spec is None or spec == "continuous":
        return None
    if spec == "trace-a":
        return trace_a()
    if spec == "trace-b":
        return trace_b()
    try:
        return FixedPeriodPower(int(spec))
    except ValueError:  # not an integer, or not a positive one
        raise ValueError(
            f"bad --power value {spec!r}: expected 'continuous', "
            "'trace-a', 'trace-b' or a positive cycle count"
        ) from None


def _globals_from(spec, program):
    """``(name, count)`` of each ``--print-globals`` entry; a
    ``ValueError`` names the first entry ``program`` cannot print."""
    entries = []
    for entry in spec.split(",") if spec else ():
        name, _, count = entry.partition(":")
        name = name.strip()
        if name not in program.global_addr:
            raise ValueError(f"bad --print-globals entry {entry!r}: "
                             f"the program has no global {name!r}")
        try:
            entries.append((name, int(count) if count else 1))
        except ValueError:
            raise ValueError(f"bad --print-globals entry {entry!r}: "
                             f"{count!r} is not an element count") from None
    return entries


def _read_sources(paths):
    sources = []
    for path in paths:
        with open(path) as handle:
            sources.append(handle.read())
    return sources


def _compile(verb, args):
    """The program ``args`` names, or ``None`` once the compile failure
    is reported the way ``lint`` reports it."""
    try:
        return iclang(_read_sources(args.sources), args.env,
                      unroll_factor=args.unroll)
    except Exception as exc:  # front/middle end rejected the program
        print(f"{verb}: compilation failed: {exc}", file=sys.stderr)
        return None


def _cmd_compile(args) -> int:
    from .backend.disasm import render_compile_listing

    program = _compile("compile", args)
    if program is None:
        return EXIT_COMPILE_FAILED
    checkpoints = sum(1 for i in program.instrs if i.opcode == "checkpoint")
    # to stdout or to -o, both pinned by the golden manifest's ``cli``
    # section
    text = render_compile_listing(program, args.env)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({program.text_size} .text bytes, "
              f"{checkpoints} static checkpoints)")
    else:
        print(text)
    return 0


def _cmd_run(args) -> int:
    program = _compile("run", args)
    if program is None:
        return EXIT_COMPILE_FAILED
    try:
        power = _power_from(args.power)
        shown = _globals_from(args.print_globals, program)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_COMPILE_FAILED
    machine = Machine(
        program,
        war_check=args.verify_war,
        interrupt_interval=args.interrupt_interval,
    )
    try:
        stats = machine.run(power=power,
                            max_instructions=args.max_instructions)
    except EmulationError as exc:
        print(f"execution aborted: {exc}")
        return 1
    print(stats.summary())
    if stats.power_failures:
        print(f"re-executed {stats.reexecuted_cycles} cycles across "
              f"{stats.power_failures} power failures")
    if args.verify_war:
        if machine.war.clean:
            print("WAR verification: clean")
        else:
            print(f"WAR verification: {len(machine.war.violations)} violations")
            for violation in machine.war.violations[:5]:
                print(f"  {violation}")
            return 1
    for name, count in shown:
        print(f"@{name} = {machine.read_global(name, count)}")
    return 0


def _cmd_lint(args) -> int:
    import json

    if bool(args.sources) == bool(args.benchmark):
        print("lint: pass either source files or --benchmark NAME",
              file=sys.stderr)
        return EXIT_COMPILE_FAILED
    try:
        if args.benchmark:
            results = lint_benchmarks(args.benchmark, args.env,
                                      level=args.level, budget=args.budget)
        else:
            results = [lint_sources(_read_sources(args.sources), args.env,
                                    name=args.sources[0], level=args.level,
                                    budget=args.budget)]
    except Exception as exc:  # front/middle end rejected the program
        print(f"lint: compilation failed: {exc}", file=sys.stderr)
        return EXIT_COMPILE_FAILED
    if args.certificates:
        payload = [
            {"program": r.name, "env": r.env, "certificates": r.certificates,
             "progress": r.progress, "placement": r.placement,
             "budget": r.budget, "progress_bound": r.progress_bound}
            for r in results
        ]
        with open(args.certificates, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    diagnostics = [d for r in results for d in r.engine.diagnostics]
    if args.format == "sarif":
        print(render_sarif(diagnostics))
    elif args.format == "json":
        # deterministic order, pinned by the golden manifest's ``cli``
        # section
        from .core.lint import diagnostics_json

        print(diagnostics_json(results))
    else:
        for result in results:
            if result.certified:
                verdict = (
                    "certified idempotent" if result.level == "full"
                    else "certified WAR-free"
                )
            else:
                verdict = result.engine.summary()
            if result.level == "full" and result.progress:
                bound = result.progress_bound
                verdict += (
                    f", progress bound {bound} cycles/region"
                    if bound is not None else ", progress unbounded"
                )
            if result.placement:
                verdict += (
                    f", {len(result.placement)} checkpoint(s) elided"
                )
            print(f"{result.name} [{result.env}]: {verdict}")
            if not result.engine.clean:
                print(result.engine.render_text())
        if args.certificates:
            print(f"wrote {args.certificates}")
    clean = all(r.certified for r in results)
    return EXIT_CLEAN if clean else EXIT_ERRORS


def _cmd_analyze(args) -> int:
    import json

    # the JSON report is pinned by the golden manifest's ``cli`` section
    from .core.analyze import analyze_report, render_report_text

    if bool(args.sources) == bool(args.benchmark):
        print("analyze: pass either source files or --benchmark NAME",
              file=sys.stderr)
        return EXIT_COMPILE_FAILED
    try:
        if args.benchmark:
            report = analyze_report(env=args.env, benchmark=args.benchmark)
        else:
            report = analyze_report(env=args.env,
                                    sources=_read_sources(args.sources),
                                    name=args.sources[0])
    except Exception as exc:  # front/middle end rejected the program
        print(f"analyze: compilation failed: {exc}", file=sys.stderr)
        return EXIT_COMPILE_FAILED
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_report_text(report))
    return 0


def _cmd_envs(args) -> int:
    if getattr(args, "format", "text") == "json":
        import json

        # the machine-readable environment listing, pinned by the
        # golden manifest's ``cli`` section
        from .core.pipeline import environments_payload

        print(json.dumps(environments_payload(), indent=2))
        return 0
    for name, config in ENVIRONMENTS.items():
        bits = []
        if not config.instrument:
            bits.append("uninstrumented")
        else:
            bits.append(f"alias={config.alias_mode}")
            if config.loop_write_clusterer:
                bits.append(f"loop-write-clusterer(N={config.unroll_factor})")
            if config.write_clusterer:
                bits.append("write-clusterer")
            if config.expander:
                bits.append("expander")
            if config.call_summaries:
                bits.append("call-summaries")
            if config.checkpoint_elim:
                bits.append("checkpoint-elim")
            bits.append(f"spill={config.spill_checkpoint_mode}")
            bits.append(f"epilogue={config.epilogue_style}")
        print(f"{name:<22} {', '.join(bits)}")
    return 0


def _cmd_inject(args) -> int:
    if args.progress:
        return _cmd_inject_progress(args)
    if args.differential:
        return _cmd_inject_differential(args)
    from .faultinject import full_config, quick_config, run_campaign

    overrides = {"seed": args.seed, "jobs": args.jobs,
                 "max_schedules": args.budget}
    if args.event_cap is not None:
        overrides["event_cap"] = args.event_cap
    config = (quick_config if args.quick else full_config)(**overrides)
    if args.bench:
        config = replace(config, benches=tuple(args.bench))
    if args.env:
        config = replace(config, envs=tuple(args.env))
    return _run_inject(args, run_campaign, config, "campaign failed")


def _cmd_inject_differential(args) -> int:
    from .faultinject import (
        full_differential_config,
        quick_differential_config,
        run_differential,
    )

    overrides = {"seed": args.seed, "jobs": args.jobs,
                 "max_schedules": args.budget}
    if args.event_cap is not None:
        overrides["event_cap"] = args.event_cap
    maker = (quick_differential_config if args.quick
             else full_differential_config)
    config = maker(**overrides)
    if args.bench or args.env:
        print("inject: --differential uses its built-in cell set; "
              "--bench/--env are ignored", file=sys.stderr)
    return _run_inject(args, run_differential, config,
                       "differential run failed")


def _cmd_inject_progress(args) -> int:
    from .faultinject import (
        full_progress_config,
        quick_progress_config,
        run_progress_differential,
    )

    maker = (quick_progress_config if args.quick else full_progress_config)
    config = maker()
    if args.bench or args.env:
        cells = config.cells
        if args.bench:
            cells = tuple(c for c in cells if c[0] in set(args.bench))
        if args.env:
            cells = tuple(c for c in cells if c[1] in set(args.env))
        config = replace(config, cells=cells)
    return _run_inject(args, run_progress_differential, config,
                       "progress differential failed")


def _run_inject(args, run, config, failure: str) -> int:
    """Run one ``inject`` mode and emit its report: the JSON to ``-o``,
    the JSON or text to stdout.  Exit 0 certified, 1 findings, 2 when
    the run itself fails (compile failure, unknown bench/env, ...)."""
    try:
        report = run(config)
    except Exception as exc:
        print(f"inject: {failure}: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
        if args.output:
            print(f"wrote {args.output}")
    return 0 if report.certified else 1


def _cmd_cache(args) -> int:
    from .cache import get_cache

    cache = get_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    report = cache.report()
    if getattr(args, "format", "text") == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_bench(args) -> int:
    from .bench import render_report, run_bench

    path = run_bench(quick=args.quick, output=args.output)
    print(render_report(path))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "inject":
        return _cmd_inject(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_envs(args)


if __name__ == "__main__":
    raise SystemExit(main())
