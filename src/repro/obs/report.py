"""Plain-text rendering of a metrics registry snapshot.

Nothing here names a metric: the report is derived from the data.  Each
section is a metric-name prefix (the text before the first ``.``), in
the order in which :data:`~repro.obs.catalogue.CATALOGUE`'s metric
templates first produce it, and holds one row per recorded instrument,
sorted by name.  A counter shows its value, a gauge its value and
high-water mark, a histogram its count (in the value column) and
p50/p95/p99 in the instrument's own unit.  A section with nothing
recorded is left out, and a new catalogue entry shows up without an
edit here.

``render_snapshot`` reads the dict shape of
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so it works on a
running node, on the JSON scraped from ``/metrics.json`` or on a
snapshot captured earlier; a missing kind or field renders as nothing
or zero.
"""

from __future__ import annotations

from repro.obs.catalogue import CATALOGUE

#: Section order: each metric-name prefix where the catalogue first has it.
SECTIONS = tuple(dict.fromkeys(metric.name.partition(".")[0]
                               for event in CATALOGUE
                               for metric in event.metrics))

_HEADERS = ["instrument", "value", "p50", "p95", "p99", "high water"]


def format_table(headers: "list[str]", rows: "list[list]") -> str:
    """Render an aligned plain-text table (shared report output)."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _row(kind: str, name: str, reading) -> list:
    # A row stops at its last filled column, so a section of counters
    # is a two-column table.
    if kind == "counters":
        return [name, reading]
    if kind == "gauges":
        return [name, reading.get("value", 0.0), "", "", "",
                reading.get("high_water", 0.0)]
    return [name, reading.get("count", 0)] + [
        reading.get(quantile, 0.0) for quantile in ("p50", "p95", "p99")]


def render_snapshot(snapshot: dict) -> str:
    """Every instrument in *snapshot*, one section per metric prefix.

    *snapshot* is ``MetricsRegistry.snapshot()`` output — live, scraped
    from ``/metrics.json``, or loaded from a file.  An empty snapshot
    renders as the empty string.
    """
    sections: "dict[str, list[list]]" = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, reading in snapshot.get(kind, {}).items():
            sections.setdefault(name.partition(".")[0], []).append(
                _row(kind, name, reading))
    # A prefix the catalogue never produces (a foreign snapshot) goes last.
    rank = {prefix: index for index, prefix in enumerate(SECTIONS)}
    texts = []
    for prefix in sorted(sections, key=lambda p: (rank.get(p, len(rank)), p)):
        rows = sorted(sections[prefix], key=lambda row: row[0])
        table = format_table(_HEADERS[:max(map(len, rows))], rows)
        texts.append(f"== {prefix} ==\n"
                     + "\n".join(line.rstrip() for line in table.splitlines()))
    return "\n\n".join(texts)
