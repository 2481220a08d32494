"""Exporters: CSV tables and GraphML graphs for downstream tools.

§3 promises "familiar interfaces to social scientists, so that they can
directly validate theories using computational platforms such as R,
Matlab, and SPSS". Those platforms read CSV; graph tools (Gephi, igraph)
read GraphML. Everything here writes to the *local* filesystem (the
hand-off boundary out of the platform), not the simulated DFS.
"""

from __future__ import annotations

import csv
import xml.sax.saxutils as saxutils
from typing import Dict, Optional, Sequence

from repro.analysis.engagement import EngagementTable
from repro.engine.dataframe import DataFrame
from repro.graph.bipartite import BipartiteGraph


def write_csv(path: str, rows: Sequence[Dict],
              columns: Optional[Sequence[str]] = None) -> int:
    """Write dict rows as CSV; returns the number of data rows."""
    rows = list(rows)
    if columns is None:
        if not rows:
            raise ValueError("cannot infer columns from zero rows")
        columns = sorted(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns),
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def dataframe_to_csv(frame: DataFrame, path: str) -> int:
    """Materialize a DataFrame and write it as CSV."""
    return write_csv(path, frame.collect(), columns=frame.columns)


def engagement_table_to_csv(table: EngagementTable, path: str) -> int:
    """The Figure 6 table as CSV (with success counts and Wilson CIs)."""
    rows = []
    for row in table.rows:
        lo, hi = row.wilson_ci()
        rows.append({
            "category": row.label,
            "companies": row.companies,
            "company_pct": round(row.company_pct, 4),
            "successes": row.successes,
            "success_pct": round(row.success_pct, 4),
            "success_ci_low_pct": round(100 * lo, 4),
            "success_ci_high_pct": round(100 * hi, 4),
        })
    return write_csv(path, rows,
                     columns=["category", "companies", "company_pct",
                              "successes", "success_pct",
                              "success_ci_low_pct", "success_ci_high_pct"])


def graph_to_graphml(graph: BipartiteGraph, path: str) -> int:
    """The bipartite investment graph as GraphML; returns edge count.

    Node ids are ``i<uid>`` / ``c<cid>`` with a ``kind`` attribute, so
    Gephi/igraph can color the two modes (as in Figure 7).
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '<key id="kind" for="node" attr.name="kind" attr.type="string"/>',
        '<graph id="investments" edgedefault="directed">',
    ]
    for investor in graph.investors:
        lines.append(f'<node id="i{investor}"><data key="kind">'
                     'investor</data></node>')
    for company in graph.companies:
        lines.append(f'<node id="c{company}"><data key="kind">'
                     'company</data></node>')
    edge_count = 0
    for investor, company in graph.edges():
        lines.append(f'<edge source="i{investor}" target="c{company}"/>')
        edge_count += 1
    lines.append("</graph></graphml>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    return edge_count


def edges_to_csv(graph: BipartiteGraph, path: str) -> int:
    """Plain ``investor_id,company_id`` edge list (R/pandas-friendly)."""
    rows = [{"investor_id": u, "company_id": c} for u, c in graph.edges()]
    return write_csv(path, rows, columns=["investor_id", "company_id"])
