"""Loading expression matrices and labels, pathway/gene alignment, serializers.

File formats:

* Expression CSV: header row ``sample,GENE1,GENE2,...`` (first column holds
  sample identifiers; an optional column named ``group`` — any case — holds
  labels 1/2); one row per sample. A file of plain lines is converted in
  blocks by ``np.loadtxt``; every other file, and one in which that reader
  meets any problem, is read whole by the csv module, row by row (see
  :func:`load_expression`).
* Labels CSV: ``sample,group`` rows, optional header, group ∈ {1, 2}. When a
  labels file is given it takes precedence over an in-file group column.
* Pathway edge lists: see :mod:`dagtest.pathway`.

All floats are serialized with ``repr``, which is the shortest representation
that round-trips to the identical double, so written reports are bit-stable.
"""

from __future__ import annotations

import csv
import json
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DagTestError,
    EmptyIntersection,
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from .pathway import PathwayDag
from .sem import GroupedSample


# Rows whose value cells one np.loadtxt call converts.
_BLOCK_ROWS = 32


def _csv_rows(path: str, lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
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
    reader = csv.reader(lines)
    start = 1
    try:
        for row in reader:
            if any(field.strip() for field in row):
                yield start, row
            start = 1 + reader.line_num
    except csv.Error as exc:
        raise ParseError(f"{path}: line {start}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc


def _undecodable(path: str, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for bytes the file's encoding cannot decode. It names
    the bytes but not the decoder's "position N", which counts from the
    start of the chunk the decoder was reading, not from the start of the
    file."""
    bad = exc.object[exc.start : exc.end]
    what = " ".join(f"0x{byte:02x}" for byte in bad)
    noun = "byte" if len(bad) == 1 else "bytes"
    return ParseError(
        f"{path}: '{exc.encoding}' codec can't decode {noun} {what}: {exc.reason}"
    )


def _drop_bom(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` without one leading U+FEFF, the byte-order mark that some
    editors write at the start of a UTF-8 file."""
    lines = iter(lines)
    for first in lines:
        yield first.removeprefix("\ufeff")
        yield from lines


def read_text(path) -> str:
    """A file's decoded text, less one leading byte-order mark. A byte the
    encoding cannot decode raises a ParseError naming the file."""
    try:
        with open(path) as handle:
            return "".join(_drop_bom(handle))
    except UnicodeDecodeError as exc:
        raise _undecodable(str(path), exc) from exc


def _field(text: str, index: int, count: int) -> str:
    """Field ``index`` of a plain line of ``count`` fields, split from the
    nearer end so that the other fields stay one string."""
    after = count - 1 - index
    if index <= after:
        return text.split(",", index + 1)[index]
    return text.rsplit(",", after + 1)[1]


def load_labels(path: str) -> dict[str, int]:
    """Read a ``sample,group`` CSV into a mapping.

    The first non-blank row is a header when its group field is not 1 or 2.
    One leading byte-order mark is dropped.

    Raises:
        ParseError: wrong field count, an empty or duplicate sample id, or a
            group value outside {1, 2}.
    """
    labels: dict[str, int] = {}
    with open(path, newline="") as handle:
        rows = _csv_rows(path, _drop_bom(handle))
        for index, (lineno, row) in enumerate(rows):
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

    One of two readers reads the whole file. A file of plain lines (see
    :func:`_read_blocks`) is read in blocks of ``_BLOCK_ROWS`` rows, one
    ``np.loadtxt`` call converting each block's value cells. Any other file,
    and any file in which that reader meets a problem, is read again from
    line 1 by :func:`_read_rows` through the csv module, and that reader
    raises the error. The labels file is read once, so it and the
    expression file may be pipes. Both readers keep only the float values,
    so peak memory is a small multiple of the matrix itself. A cell is a
    number when ``float(cell.strip())`` accepts it.

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
    labels = _labels_once(labels_path)
    with open(path, newline="") as handle:
        read = _read_blocks(path, handle, labels)
        if read is None:
            read = _read_rows(path, handle, labels)
    by_group, genes = read
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


def _labels_once(
    labels_path: str | None,
) -> Callable[[], dict[str, int] | None]:
    """A function that returns the labels file's mapping, or None when no
    file is given. Both readers call it, after the header, but the file is
    read on the first call only, so a pipe can be given; a ParseError from
    that read is kept and raised again, without its earlier traceback, on
    later calls."""
    kept: list[dict[str, int] | ParseError] = []

    def labels() -> dict[str, int] | None:
        if labels_path is None:
            return None
        if not kept:
            try:
                kept.append(load_labels(labels_path))
            except ParseError as exc:
                kept.append(exc)
        if isinstance(kept[0], ParseError):
            raise kept[0].with_traceback(None)
        return kept[0]

    return labels


def _header(path: str, row: list[str]) -> tuple[list[str], int | None, list[int]]:
    """The stripped header, the group column (None: there is none) and the
    gene columns of an expression file's first row.

    Raises:
        ParseError: no gene, or an empty or duplicate gene identifier.
    """
    header = [field.strip() for field in row]
    group_col = None
    for idx, name in enumerate(header[1:], start=1):
        if name.lower() == "group":
            group_col = idx
            break
    gene_cols = [idx for idx in range(1, len(header)) if idx != group_col]
    if not gene_cols:
        raise ParseError(f"{path}: header must name at least one gene")
    seen: set[str] = set()
    for idx in gene_cols:
        gene = header[idx]
        if not gene:
            raise ParseError(f"{path}: empty gene identifier in header")
        if gene in seen:
            raise ParseError(f"{path}: duplicate gene identifier {gene!r} in header")
        seen.add(gene)
    return header, group_col, gene_cols


def _label(
    path: str,
    lineno: int,
    sample_field: str,
    group_field: str | None,
    ids: set[str],
    sidecar: dict[str, int] | None,
) -> int:
    """Check a row's sample id, add it to ``ids`` and return the row's
    group; ``group_field`` is None when the file has no group column.

    Raises:
        ParseError: an empty or repeated sample id, or a group field that
            is not 1 or 2.
        UnlabeledSample: no group for the sample.
    """
    sample_id = sample_field.strip()
    if not sample_id:
        raise ParseError(f"{path}: line {lineno}: empty sample id")
    if sample_id in ids:
        raise ParseError(f"{path}: line {lineno}: duplicate sample id {sample_id!r}")
    ids.add(sample_id)
    if sidecar is not None:
        if sample_id not in sidecar:
            raise UnlabeledSample(
                f"sample {sample_id!r} has no entry in the labels file"
            )
        return sidecar[sample_id]
    if group_field is None:
        raise UnlabeledSample(
            f"sample {sample_id!r} is unlabeled: the file has no group "
            "column and no labels file was given"
        )
    raw = group_field.strip()
    if raw not in ("1", "2"):
        raise ParseError(f"{path}: line {lineno}: group must be 1 or 2, got {raw!r}")
    return int(raw)


def _read_blocks(
    path: str, handle, labels: Callable[[], dict[str, int] | None]
) -> tuple[dict[int, list[np.ndarray]], list[str]] | None:
    """Read an open expression file of plain lines: return its value rows
    by group and its gene names, or None, with the handle back at the start
    of the file, to leave the file to :func:`_read_rows`.

    A plain line has no ``"``, no NUL and no more characters than the csv
    module's field size limit, so its fields are exactly ``text.split(",")``,
    where ``text`` is the line without its terminator. The header and the
    ids and groups are checked as :func:`_read_rows` checks them, and one
    ``np.loadtxt`` call converts the value cells of each block of
    ``_BLOCK_ROWS`` rows. It accepts a subset of the cells that
    ``float(cell.strip())`` accepts, with the same values; it refuses
    ``1_000`` and non-ASCII digits. The reader returns None at the first
    thing it cannot settle: a line that is not plain, a header or row error,
    a refused cell, a non-finite value, or a byte that cannot be decoded.
    It takes no file that cannot be read again, such as a pipe.
    """
    if not handle.seekable():
        return None
    limit = csv.field_size_limit()
    first = gene_cols = None
    ids: set[str] = set()
    by_group: dict[int, list[np.ndarray]] = {1: [], 2: []}
    texts: list[str] = []
    groups: list[int] = []
    try:
        for lineno, line in enumerate(handle, start=1):
            if '"' in line or "\0" in line or len(line) > limit:
                raise ValueError("not a plain line")
            text = line.rstrip("\r\n")
            # A row is blank when every field is whitespace. A first
            # non-space character other than a comma settles it at once.
            head = text.lstrip()
            if head[:1] in ("", ",") and not head.replace(",", "").strip():
                continue
            if first is None:
                first = text
                continue
            if gene_cols is None:
                header, group_col, gene_cols = _header(path, first.split(","))
                sidecar = labels()
                count = len(header)
            if text.count(",") != count - 1:
                raise ValueError("wrong field count")
            group_field = None if group_col is None else _field(text, group_col, count)
            groups.append(
                _label(path, lineno, _field(text, 0, count), group_field, ids, sidecar)
            )
            texts.append(text)
            if len(texts) == _BLOCK_ROWS:
                _keep_block(by_group, groups, texts, gene_cols)
                texts, groups = [], []
        if gene_cols is None:
            raise ValueError("no sample row")
        if texts:
            _keep_block(by_group, groups, texts, gene_cols)
    except (ValueError, DagTestError):
        handle.seek(0)
        return None
    return by_group, [header[idx] for idx in gene_cols]


def _keep_block(
    by_group: dict[int, list[np.ndarray]],
    groups: list[int],
    texts: list[str],
    gene_cols: list[int],
) -> None:
    """Convert the value cells of a block of plain lines with one
    ``np.loadtxt`` call and keep each row under its group, or raise
    ValueError when a cell is refused or a value is not finite."""
    values = np.loadtxt(
        texts,
        delimiter=",",
        usecols=gene_cols,
        comments=None,
        quotechar=None,
        dtype=float,
        ndmin=2,
    )
    if values.shape != (len(texts), len(gene_cols)) or not np.isfinite(values).all():
        raise ValueError("block not settled by np.loadtxt")
    for group, row in zip(groups, values):
        by_group[group].append(row)


def _read_rows(
    path: str, handle, labels: Callable[[], dict[str, int] | None]
) -> tuple[dict[int, list[np.ndarray]], list[str]]:
    """Read an open expression file with the csv module from its first line:
    return its value rows by group and its gene names, or raise the first
    error (see :func:`load_expression`)."""
    first = gene_cols = None
    ids: set[str] = set()
    by_group: dict[int, list[np.ndarray]] = {1: [], 2: []}
    # The message for the first non-finite cell in file order.
    non_finite = None
    for lineno, row in _csv_rows(path, handle):
        if first is None:
            first = row
            continue
        if gene_cols is None:
            header, group_col, gene_cols = _header(path, first)
            sidecar = labels()
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        group_field = None if group_col is None else row[group_col]
        group = _label(path, lineno, row[0], group_field, ids, sidecar)
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
        finite = np.isfinite(values)
        if non_finite is None and not finite.all():
            j = int(np.argmin(finite))
            non_finite = (
                f"{path}: line {lineno}, column {header[gene_cols[j]]!r}: "
                f"not a finite number: {cells[j].strip()!r}"
            )
        by_group[group].append(values)
    if gene_cols is None:
        raise ParseError(f"{path}: need a header row and at least one sample row")
    if non_finite is not None:
        raise ParseError(non_finite)
    return by_group, [header[idx] for idx in gene_cols]


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
    labels = [dag.node_labels[i] for i in kept]
    signs = None
    if dag.edge_signs:
        signs = {
            (remap[j], remap[k]): s
            for (j, k), s in dag.edge_signs.items()
            if j in remap and k in remap
        }
    restricted = PathwayDag.from_edges(
        edges, p=len(kept), labels=labels, edge_signs=signs
    )
    return restricted, dropped


def log2_shift_transform(X: np.ndarray) -> np.ndarray:
    """log2(x − min + 1) with the overall matrix minimum, an order-preserving
    compression for raw-scale expression values."""
    X = np.asarray(X, dtype=float)
    # Values spanning more than the float range shift to inf, which the
    # sample's range check then refuses with its own line.
    with np.errstate(over="ignore"):
        shifted = X - X.min()
    return np.log2(shifted + 1.0)


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
