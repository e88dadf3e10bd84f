"""``repro analyze`` as a library: points-to sets, mod/ref summaries,
and precision-loss causes as one JSON-safe report.

``python -m repro analyze`` prints :func:`analyze_report` as JSON
(``--format json``, pinned by the golden manifest's ``cli`` section) or
through :func:`render_report_text`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .pipeline import EnvironmentConfig, environment


def _object_name(obj) -> str:
    from ..ir.values import GlobalVariable

    prefix = "@" if isinstance(obj, GlobalVariable) else "%"
    return prefix + (getattr(obj, "name", "") or "?")


def _object_names(objs) -> Optional[List[str]]:
    """Sorted printable names of a summary set, or None for TOP."""
    if objs is None:
        return None
    return sorted(_object_name(o) for o in objs)


def analyze_module(module, config: EnvironmentConfig) -> Tuple[List, List, List]:
    """(function rows, argument rows, cause rows) for one module."""
    from ..analysis.summaries import compute_summaries
    from ..ir.types import is_pointer
    from ..transforms import optimize_module

    optimize_module(module)
    table = compute_summaries(module, alias_mode=config.alias_mode)
    functions = []
    for name in sorted(table.functions):
        summary = table.functions[name]
        functions.append({
            "function": name,
            "mod": _object_names(summary.mod),
            "ref": _object_names(summary.ref),
            "pure": summary.pure,
            "read_only": summary.read_only,
            "recursive": summary.recursive,
            "transparent": name in table.transparent,
        })
    arguments = []
    for function in module.defined_functions():
        for arg in function.args:
            if not is_pointer(arg.type):
                continue
            arguments.append({
                "function": function.name,
                "argument": arg.name,
                "points_to": _object_names(
                    table.arg_points_to.get(id(arg), frozenset())
                ),
            })
    arguments.sort(key=lambda row: (row["function"], row["argument"]))
    causes = sorted(
        {(c.code, c.function, c.detail) for c in table.causes}
    )
    return functions, arguments, causes


def analyze_report(
    env: Union[str, EnvironmentConfig] = "wario-summaries",
    benchmark: Optional[str] = None,
    sources: Optional[List[str]] = None,
    name: str = "program",
) -> List[Dict[str, object]]:
    """Compile and analyze programs, returning the full report structure.

    Pass either ``benchmark`` (a benchsuite name, or ``"all"`` for the
    whole suite) or ``sources`` (mini-C text).  Each report entry carries
    the per-function mod/ref rows, the pointer-argument points-to sets,
    and every precision-loss cause.
    """
    from ..frontend import compile_sources
    from ..ir import verify_module

    if bool(sources) == bool(benchmark):
        raise ValueError("analyze_report: pass either sources or benchmark")
    config = environment(env)
    programs = []
    if benchmark:
        from ..benchsuite import BENCHMARKS, get_benchmark

        names = list(BENCHMARKS) if benchmark == "all" else [benchmark]
        for bench_name in names:
            programs.append((bench_name, [get_benchmark(bench_name).source]))
    else:
        programs.append((name, list(sources)))

    report: List[Dict[str, object]] = []
    for program_name, program_sources in programs:
        module = compile_sources(program_sources, program_name)
        verify_module(module)
        functions, arguments, causes = analyze_module(module, config)
        report.append({
            "program": program_name,
            "env": config.name,
            "functions": functions,
            "arguments": arguments,
            "precision_losses": [
                {"code": code, "function": fn, "detail": detail}
                for code, fn, detail in causes
            ],
        })
    return report


def render_report_text(report: List[Dict[str, object]]) -> str:
    """The human-readable rendering the CLI prints without ``--format
    json``."""
    lines: List[str] = []
    for entry in report:
        lines.append(f"== {entry['program']} [{entry['env']}] ==")
        for row in entry["functions"]:
            tags = [
                tag for tag, on in (
                    ("pure", row["pure"]),
                    ("read-only", row["read_only"] and not row["pure"]),
                    ("recursive", row["recursive"]),
                    ("transparent", row["transparent"]),
                ) if on
            ]
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            lines.append(f"  {row['function']}{suffix}")
            for kind in ("mod", "ref"):
                sets = row[kind]
                rendered = "TOP" if sets is None else (
                    "{" + ", ".join(sets) + "}"
                )
                lines.append(f"    {kind}: {rendered}")
        if entry["arguments"]:
            lines.append("  pointer arguments:")
            for row in entry["arguments"]:
                sets = row["points_to"]
                rendered = "TOP" if sets is None else (
                    "{" + ", ".join(sets) + "}"
                )
                lines.append(f"    {row['function']}({row['argument']}) -> {rendered}")
        if entry["precision_losses"]:
            lines.append("  precision losses:")
            for loss in entry["precision_losses"]:
                lines.append(f"    [{loss['code']}] {loss['function']}: "
                             f"{loss['detail']}")
        else:
            lines.append("  precision losses: none")
    return "\n".join(lines)


__all__ = ["analyze_module", "analyze_report", "render_report_text"]
