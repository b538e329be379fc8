"""Loading expression matrices and labels, pathway/gene alignment, serializers.

File formats:

* Expression CSV: header row ``sample,GENE1,GENE2,...`` (first column holds
  sample identifiers; an optional column named ``group`` — any case — holds
  labels 1/2); one row per sample. Blocks of plain lines are converted by
  one ``np.loadtxt`` call each, and a block with any problem is read again
  row by row; from the first quoted line on, the csv module reads the rest
  row by row (see :func:`load_expression`).
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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyIntersection,
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from .pathway import PathwayDag
from .sem import GroupedSample


# Rows whose value cells one np.loadtxt call converts.
_BLOCK_ROWS = 32


def _csv_rows(
    path: str, lines: Iterable[str], first_line: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(file line where the row starts, row)`` for each CSV row that
    holds a non-blank field, where ``lines`` starts at file line
    ``first_line``.

    A quoted field may span lines, so a row is numbered by its first line;
    blank lines are skipped but still counted.

    Raises:
        ParseError: the CSV reader's own error (say, a field over its size
            limit), with the line where the row starts; or a byte the file's
            encoding cannot decode, with the file only, because the decoder
            reads ahead of the row the reader is on.
    """
    reader = csv.reader(lines)
    start = first_line
    try:
        for row in reader:
            if any(field.strip() for field in row):
                yield start, row
            start = first_line + reader.line_num
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


def _row_blocks(
    path: str, handle
) -> Iterator[list[tuple[int, str | list[str]]]]:
    """Yield the rows of :func:`_csv_rows` in blocks of ``(line, row)``.

    A plain line, one with no ``"``, no NUL and no more characters than the
    csv module's field size limit, is one row whose fields are exactly
    ``text.split(",")``, where ``text`` is the line without its terminator.
    Plain rows come as their ``text``, up to ``_BLOCK_ROWS`` to a block. From
    the first line that is not plain, the csv reader reads the rest of the
    file, and each of its rows comes as a list of fields, in a block of one.

    Raises:
        ParseError: as :func:`_csv_rows`; a byte that cannot be decoded is
            raised after the rows before it have been yielded.
    """
    limit = csv.field_size_limit()
    block: list = []
    lineno = 0
    rest = None
    try:
        for line in handle:
            lineno += 1
            if '"' in line or "\0" in line or len(line) > limit:
                rest = itertools.chain((line,), handle)
                break
            text = line.rstrip("\r\n")
            # A row is blank when every field is whitespace. A first
            # non-space character other than a comma settles it at once.
            head = text.lstrip()
            if head[:1] not in ("", ",") or head.replace(",", "").strip():
                block.append((lineno, text))
                if len(block) == _BLOCK_ROWS:
                    yield block
                    block = []
    except UnicodeDecodeError as exc:
        if block:
            yield block
        raise _undecodable(path, exc) from exc
    if block:
        yield block
    if rest is not None:
        for row in _csv_rows(path, rest, lineno):
            yield [row]


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

    The file is read in one pass. Plain lines (see :func:`_row_blocks`) are
    checked in blocks of up to ``_BLOCK_ROWS`` rows, and one ``np.loadtxt``
    call converts a block's value cells. A block with any problem is read
    again one row at a time, and that path raises the error. So is every row
    from the first line that is not plain on, as the csv module parses it.
    Either way only the float values are kept, so peak memory is a small
    multiple of the matrix itself. A cell is a number when
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
        samples, genes = _read_samples(path, handle, labels_path)
    if samples.non_finite is not None:
        raise ParseError(samples.non_finite)
    by_group = samples.by_group
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


def _read_samples(
    path: str, handle, labels_path: str | None
) -> tuple[_SampleRows, list[str]]:
    """Check the header and every row of an open expression file; return
    the rows and the gene names. Its own function, so that the text of the
    last blocks is dropped before ``load_expression`` stacks the matrix."""
    blocks = _row_blocks(path, handle)
    rows = next(blocks, [])
    if len(rows) == 1:
        rows += next(blocks, [])
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one sample row")
    header = [field.strip() for field in _fields(rows[0][1])]
    group_col = None
    for idx, name in enumerate(header[1:], start=1):
        if name.lower() == "group":
            group_col = idx
            break
    gene_cols = [idx for idx in range(1, len(header)) if idx != group_col]
    genes = [header[idx] for idx in gene_cols]
    if not genes:
        raise ParseError(f"{path}: header must name at least one gene")
    seen: set[str] = set()
    for gene in genes:
        if not gene:
            raise ParseError(f"{path}: empty gene identifier in header")
        if gene in seen:
            raise ParseError(f"{path}: duplicate gene identifier {gene!r} in header")
        seen.add(gene)

    sidecar = load_labels(labels_path) if labels_path is not None else None
    samples = _SampleRows(path, header, group_col, gene_cols, sidecar)
    for block in itertools.chain((rows[1:],), blocks):
        if not (isinstance(block[0][1], str) and samples.add_block(block)):
            for lineno, row in block:
                samples.add_row(lineno, _fields(row))
    return samples, genes


def _fields(row: str | list[str]) -> list[str]:
    """The fields of a row from :func:`_row_blocks`."""
    return row.split(",") if isinstance(row, str) else row


class _SampleRows:
    """The checked sample rows of one expression file, by group.

    ``add_row`` takes one row and raises its first error. ``add_block``
    takes a block of plain lines and keeps them only if none has an error.
    """

    def __init__(
        self,
        path: str,
        header: list[str],
        group_col: int | None,
        gene_cols: list[int],
        sidecar: dict[str, int] | None,
    ):
        self.path = path
        self.header = header
        self.group_col = group_col
        self.gene_cols = gene_cols
        self.sidecar = sidecar
        self.sample_ids: set[str] = set()
        self.by_group: dict[int, list[np.ndarray]] = {1: [], 2: []}
        # The message for the first non-finite cell in file order.
        self.non_finite: str | None = None

    def _label(
        self, lineno: int, sample_field: str, group_field: str | None
    ) -> tuple[str, int]:
        """The row's sample id and group, or the error of the first that
        is wrong."""
        path = self.path
        sample_id = sample_field.strip()
        if not sample_id:
            raise ParseError(f"{path}: line {lineno}: empty sample id")
        if sample_id in self.sample_ids:
            raise ParseError(
                f"{path}: line {lineno}: duplicate sample id {sample_id!r}"
            )
        if self.sidecar is not None:
            if sample_id not in self.sidecar:
                raise UnlabeledSample(
                    f"sample {sample_id!r} has no entry in the labels file"
                )
            return sample_id, self.sidecar[sample_id]
        if self.group_col is None:
            raise UnlabeledSample(
                f"sample {sample_id!r} is unlabeled: the file has no group "
                "column and no labels file was given"
            )
        raw = group_field.strip()
        if raw not in ("1", "2"):
            raise ParseError(
                f"{path}: line {lineno}: group must be 1 or 2, got {raw!r}"
            )
        return sample_id, int(raw)

    def _keep_non_finite(self, lineno: int, j: int, cell: str) -> None:
        """Keep the message for a non-finite value in gene ``j``, unless an
        earlier cell had one."""
        if self.non_finite is None:
            self.non_finite = (
                f"{self.path}: line {lineno}, column "
                f"{self.header[self.gene_cols[j]]!r}: "
                f"not a finite number: {cell.strip()!r}"
            )

    def add_row(self, lineno: int, row: list[str]) -> None:
        """Check and keep one row, or raise its first error."""
        path, header, group_col = self.path, self.header, self.group_col
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        sample_id, group = self._label(
            lineno, row[0], None if group_col is None else row[group_col]
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
                [_number(path, lineno, header[idx], row[idx]) for idx in self.gene_cols]
            )
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.argmin(finite))
            self._keep_non_finite(lineno, j, cells[j])
        self.sample_ids.add(sample_id)
        self.by_group[group].append(values)

    def add_block(self, block: list[tuple[int, str]]) -> bool:
        """Check a block of plain lines and convert its value cells with one
        ``np.loadtxt`` call. Keep the block and return True, or keep nothing
        and return False when any row has a problem.

        ``np.loadtxt`` accepts a subset of the cells that
        ``float(cell.strip())`` accepts, with the same values. It refuses
        ``1_000`` and non-ASCII digits, and a block holding them goes to
        ``add_row``.
        """
        count, group_col = len(self.header), self.group_col
        ids = self.sample_ids
        added: list[str] = []
        groups: list[int] = []
        try:
            for lineno, text in block:
                if text.count(",") != count - 1:
                    raise ValueError("wrong field count")
                sample_id, group = self._label(
                    lineno,
                    _field(text, 0, count),
                    None if group_col is None else _field(text, group_col, count),
                )
                ids.add(sample_id)
                added.append(sample_id)
                groups.append(group)
            values = np.loadtxt(
                [text for _, text in block],
                delimiter=",",
                usecols=self.gene_cols,
                comments=None,
                quotechar=None,
                dtype=float,
                ndmin=2,
            )
            if values.shape != (len(block), len(self.gene_cols)):
                raise ValueError("wrong shape")
        except (ValueError, ParseError, UnlabeledSample):
            ids.difference_update(added)
            return False
        finite = np.isfinite(values)
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), finite.shape[1])
            lineno, text = block[i]
            self._keep_non_finite(
                lineno, j, _field(text, self.gene_cols[j], count)
            )
        for group, values_row in zip(groups, values):
            self.by_group[group].append(values_row)
        return True


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
