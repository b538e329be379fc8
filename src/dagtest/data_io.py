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
import itertools
import json
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyIntersection,
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from .pathway import PathwayDag
from .sem import GroupedSample


def _csv_rows(path: str, handle) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(file line where the row starts, row)`` for each CSV row that
    holds a non-blank field.

    A quoted field may span lines, so a row is numbered by its first line;
    blank lines are skipped but still counted.

    Raises:
        ParseError: the CSV reader's own error (say, a field over its size
            limit), with the line where the row starts; or a byte the file's
            encoding cannot decode, with the file only, because the decoder
            reads ahead of the row the reader is on.
    """
    reader = csv.reader(handle)
    start = 1
    try:
        for row in reader:
            if any(field.strip() for field in row):
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}: line {start}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_labels(path: str) -> dict[str, int]:
    """Read a ``sample,group`` CSV into a mapping.

    The first non-blank row is a header when its group field is not 1 or 2.

    Raises:
        ParseError: wrong field count, an empty or duplicate sample id, or a
            group value outside {1, 2}.
    """
    labels: dict[str, int] = {}
    with open(path, newline="") as handle:
        for index, (lineno, row) in enumerate(_csv_rows(path, handle)):
            if len(row) != 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            sample, group = row[0].strip(), row[1].strip()
            if index == 0 and group not in ("1", "2"):
                continue  # header row
            if not sample:
                raise ParseError(f"{path}: line {lineno}: empty sample id")
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

    The file is read in one pass, one row at a time: each row's cells become
    a float array and the row's strings are dropped, so peak memory is a
    small multiple of the matrix itself. A cell is a number when
    ``float(cell.strip())`` accepts it.

    Returns:
        (sample, gene_index) where gene_index maps gene identifier to the
        column of ``sample.X`` holding it.

    Raises:
        ParseError: structural problems or a non-finite value, with
            file/line/column locations. Structural and number errors are
            raised at the first row that has one; a non-finite value is
            raised, at its first cell in file order, only after every row
            has passed those checks.
        UnlabeledSample: a sample with no group assignment, named.
        GroupTooSmall: fewer than 2 samples in either group.
    """
    with open(path, newline="") as handle:
        rows = _csv_rows(path, handle)
        header_row = next(rows, None)
        first_row = next(rows, None)
        if first_row is None:
            raise ParseError(
                f"{path}: need a header row and at least one sample row"
            )
        header = [field.strip() for field in header_row[1]]
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
        for gene in genes:
            if not gene:
                raise ParseError(f"{path}: empty gene identifier in header")
            if gene in seen:
                raise ParseError(
                    f"{path}: duplicate gene identifier {gene!r} in header"
                )
            seen.add(gene)

        sidecar = load_labels(labels_path) if labels_path is not None else None
        sample_ids: set[str] = set()
        by_group: dict[int, list[np.ndarray]] = {1: [], 2: []}
        non_finite = None
        for lineno, row in itertools.chain((first_row,), rows):
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
                        f"{path}: line {lineno}: group must be 1 or 2, "
                        f"got {raw!r}"
                    )
                group = int(raw)
            else:
                raise UnlabeledSample(
                    f"sample {sample_id!r} is unlabeled: the file has no group "
                    "column and no labels file was given"
                )
            cells = (
                row[1:]
                if group_col is None
                else row[1:group_col] + row[group_col + 1 :]
            )
            try:
                # numpy converts each string with float().
                values = np.array(cells, dtype=float)
            except ValueError:
                # Either a cell is not a number, and _number names the first
                # one, or a cell is padded with one of the separators
                # \x1c-\x1f, which str.strip() removes and float() does not.
                values = np.array(
                    [_number(path, lineno, header[idx], row[idx]) for idx in gene_cols]
                )
            if non_finite is None and not np.isfinite(values).all():
                j = int(np.argmin(np.isfinite(values)))
                non_finite = (
                    f"{path}: line {lineno}, column {genes[j]!r}: "
                    f"not a finite number: {cells[j].strip()!r}"
                )
            sample_ids.add(sample_id)
            by_group[group].append(values)

    if non_finite is not None:
        raise ParseError(non_finite)
    for label, members in by_group.items():
        if len(members) < 2:
            raise GroupTooSmall(
                f"group {label} has {len(members)} samples; need at least 2"
            )
    n1, n2 = len(by_group[1]), len(by_group[2])
    sample = GroupedSample(
        X=np.vstack(by_group[1] + by_group[2]),
        g=np.repeat(np.array([1, 0], np.int8), (n1, n2)),
        n1=n1,
        n2=n2,
    )
    gene_index = {gene: col for col, gene in enumerate(genes)}
    return sample, gene_index


def _number(path: str, lineno: int, column: str, field: str) -> float:
    """``float(field.strip())``, or a ParseError naming the cell."""
    field = field.strip()
    try:
        return float(field)
    except ValueError as exc:
        raise ParseError(
            f"{path}: line {lineno}, column {column!r}: not a number: {field!r}"
        ) from exc


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
