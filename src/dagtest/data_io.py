"""Loading expression matrices and labels, pathway/gene alignment, serializers.

File formats:

* Expression CSV: header row ``sample,GENE1,GENE2,...`` (first column holds
  sample identifiers; an optional column named ``group`` — any case — holds
  labels 1/2); one row per sample.
* Labels CSV: ``sample,group`` rows, optional header, group ∈ {1, 2}. When a
  labels file is given it takes precedence over an in-file group column.
* Pathway edge lists: see :mod:`dagtest.pathway`.

All floats are serialized with ``repr``, which is the shortest representation
that round-trips to the identical double, so written reports are bit-stable.
"""

from __future__ import annotations

import csv
import json
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyIntersection,
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from .pathway import PathwayDag
from .sem import GroupedSample


def load_labels(path: str) -> dict[str, int]:
    """Read a ``sample,group`` CSV into a mapping; tolerates one header row.

    Raises:
        ParseError: wrong field count or a group value outside {1, 2}.
    """
    labels: dict[str, int] = {}
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            sample, group = row[0].strip(), row[1].strip()
            if lineno == 1 and group not in ("1", "2"):
                continue  # header row
            if group not in ("1", "2"):
                raise ParseError(
                    f"{path}: line {lineno}: group must be 1 or 2, got {group!r}"
                )
            if sample in labels:
                raise ParseError(
                    f"{path}: line {lineno}: duplicate sample id {sample!r}"
                )
            labels[sample] = int(group)
    return labels


def load_expression(
    path: str, labels_path: str | None = None
) -> tuple[GroupedSample, dict[str, int]]:
    """Read an expression CSV into a group-1-first sample plus a gene index.

    Returns:
        (sample, gene_index) where gene_index maps gene identifier to the
        column of ``sample.X`` holding it.

    Raises:
        ParseError: structural problems or a non-finite value, with
            file/line/column locations.
        UnlabeledSample: a sample with no group assignment, named.
        GroupTooSmall: fewer than 2 samples in either group.
    """
    rows: list[list[str]] = []
    line_nums: list[int] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        # A quoted field may span lines: number each row by its first line.
        start = 1
        for row in reader:
            if any(f.strip() for f in row):
                rows.append(row)
                line_nums.append(start)
            start = reader.line_num + 1
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one sample row")
    header = [field.strip() for field in rows[0]]
    if len(header) < 2:
        raise ParseError(f"{path}: header must name at least one gene")
    group_col = None
    for idx, name in enumerate(header[1:], start=1):
        if name.lower() == "group":
            group_col = idx
            break
    gene_cols = [
        idx for idx in range(1, len(header)) if idx != group_col
    ]
    genes = [header[idx] for idx in gene_cols]
    seen: set[str] = set()
    for offset, gene in enumerate(genes):
        if not gene:
            raise ParseError(f"{path}: empty gene identifier in header")
        if gene in seen:
            raise ParseError(f"{path}: duplicate gene identifier {gene!r} in header")
        seen.add(gene)

    sidecar = load_labels(labels_path) if labels_path is not None else None
    sample_ids: set[str] = set()
    groups: list[int] = []
    values: list[list[float]] = []
    for lineno, row in zip(line_nums[1:], rows[1:]):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        sample_id = row[0].strip()
        if not sample_id:
            raise ParseError(f"{path}: line {lineno}: empty sample id")
        if sample_id in sample_ids:
            raise ParseError(
                f"{path}: line {lineno}: duplicate sample id {sample_id!r}"
            )
        if sidecar is not None:
            if sample_id not in sidecar:
                raise UnlabeledSample(
                    f"sample {sample_id!r} has no entry in the labels file"
                )
            group = sidecar[sample_id]
        elif group_col is not None:
            raw = row[group_col].strip()
            if raw not in ("1", "2"):
                raise ParseError(
                    f"{path}: line {lineno}: group must be 1 or 2, got {raw!r}"
                )
            group = int(raw)
        else:
            raise UnlabeledSample(
                f"sample {sample_id!r} is unlabeled: the file has no group "
                "column and no labels file was given"
            )
        row_values = []
        for idx in gene_cols:
            field = row[idx].strip()
            try:
                row_values.append(float(field))
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {lineno}, column {header[idx]!r}: "
                    f"not a number: {field!r}"
                ) from exc
        sample_ids.add(sample_id)
        groups.append(group)
        values.append(row_values)

    matrix = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0].tolist()
        raise ParseError(
            f"{path}: line {line_nums[i + 1]}, column {genes[j]!r}: "
            f"not a finite number: {rows[i + 1][gene_cols[j]].strip()!r}"
        )
    order1 = [i for i, g in enumerate(groups) if g == 1]
    order2 = [i for i, g in enumerate(groups) if g == 2]
    for label, members in (("1", order1), ("2", order2)):
        if len(members) < 2:
            raise GroupTooSmall(
                f"group {label} has {len(members)} samples; need at least 2"
            )
    sample = GroupedSample.from_groups(matrix[order1], matrix[order2])
    gene_index = {gene: col for col, gene in enumerate(genes)}
    return sample, gene_index


def align_pathway(
    dag: PathwayDag, gene_index: Mapping[str, int]
) -> tuple[PathwayDag, tuple[str, ...]]:
    """Restrict a labeled pathway to the genes present in the expression data.

    Unmeasured nodes are dropped with their incident edges; node order among
    the kept genes is preserved and the topological order is re-derived.

    Returns:
        (restricted dag, dropped labels in pathway order).

    Raises:
        EmptyIntersection: no pathway gene is measured.
    """
    if dag.node_labels is None:
        raise ValueError("pathway has no node labels to align on")
    kept = [i for i, lab in enumerate(dag.node_labels) if lab in gene_index]
    dropped = tuple(lab for lab in dag.node_labels if lab not in gene_index)
    if not kept:
        raise EmptyIntersection(
            "no pathway gene appears in the expression data"
        )
    if not dropped:
        return dag, ()
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[j], remap[k])
        for j, k in dag.edges
        if j in remap and k in remap
    ]
    removed = [
        (remap[j], remap[k])
        for j, k in dag.removed_edges
        if j in remap and k in remap
    ]
    labels = [dag.node_labels[i] for i in kept]
    signs = None
    if dag.edge_signs:
        signs = {
            (remap[j], remap[k]): s
            for (j, k), s in dag.edge_signs.items()
            if j in remap and k in remap
        }
    restricted = PathwayDag.from_edges(
        edges, p=len(kept), labels=labels, removed_edges=removed, edge_signs=signs
    )
    return restricted, dropped


def log2_shift_transform(X: np.ndarray) -> np.ndarray:
    """log2(x − min + 1) with the overall matrix minimum, an order-preserving
    compression for raw-scale expression values."""
    X = np.asarray(X, dtype=float)
    return np.log2(X - X.min() + 1.0)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def format_number(value) -> str:
    """Short round-trip-exact text for a number (repr for floats)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def dump_json(doc) -> str:
    """Stable JSON text: insertion-ordered keys, indent 2, trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV with '\\n' line endings and repr-formatted floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                field if isinstance(field, str) else format_number(field)
                for field in row
            )
        )
    return "\n".join(lines) + "\n"
