"""Result tables and paper-versus-measured reporting.

Formatting helpers (:func:`format_table`, :func:`format_series`, ASCII
figure rendering) and sweep summarisation used by the benchmark harness to
print the paper's tables and by ``BENCH_*.json`` emitters —
``docs/benchmarks.md`` explains how to read the outputs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.analysis.results": ["ResultTable", "SpeedupSummary", "summarize_sweep"],
    "repro.analysis.report": ["format_series", "format_table", "render_figure"],
})
