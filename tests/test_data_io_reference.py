"""The streamed expression loader against the loader it replaced.

``reference_load_labels`` and ``reference_load_expression`` below are the
earlier loaders, verbatim apart from their names: they read every row's
strings into memory and convert cell by cell with ``float(field.strip())``.
On a seeded corpus of valid and broken files the streamed
``load_expression`` must raise the same exception with the same message, or
return bit-identical values, group sizes and gene index.
"""

import csv
import io
import os
import random
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dagtest.data_io import load_expression
from dagtest.errors import (
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from dagtest.sem import GroupedSample


# ---------------------------------------------------------------------------
# The reference: the loaders as they were before streaming
# ---------------------------------------------------------------------------

def reference_load_labels(path: str) -> dict[str, int]:
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


def reference_load_expression(
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
    group_col = None
    for idx, name in enumerate(header[1:], start=1):
        if name.lower() == "group":
            group_col = idx
            break
    gene_cols = [
        idx for idx in range(1, len(header)) if idx != group_col
    ]
    genes = [header[idx] for idx in gene_cols]
    if not genes:
        raise ParseError(f"{path}: header must name at least one gene")
    seen: set[str] = set()
    for offset, gene in enumerate(genes):
        if not gene:
            raise ParseError(f"{path}: empty gene identifier in header")
        if gene in seen:
            raise ParseError(f"{path}: duplicate gene identifier {gene!r} in header")
        seen.add(gene)

    sidecar = reference_load_labels(labels_path) if labels_path is not None else None
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


# ---------------------------------------------------------------------------
# A seeded corpus of expression files
# ---------------------------------------------------------------------------

# Valid under float(cell.strip()): signs, bare points, exponents, underscores,
# non-ASCII digits and whitespace, and the separators \x1c-\x1f, which
# str.strip() removes but float() alone does not.
EXOTIC_VALID = [
    "1_000", "١٢", "１２", "\xa01.5", "+3", ".5", "1.", "-0", "0001", "1E5",
    "1e-400", " 4 ", "2\t", "　1", "१२३", "١.٥", "\x1f2", "2\x1c",
]
NOT_A_NUMBER = [
    "abc", "", "  ", "1e", "0x10", "1,5", "1__0", "_1", "1_", "0b1", "1j",
    "True", "- 1", ".", "e5", "1d5", "NaN(1)", "1.\n5",
]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "+nan", "1e999", "-Infinity", "inF"]


def _value(rng):
    if rng.random() < 0.15:
        return rng.choice(EXOTIC_VALID)
    return repr(round(rng.gauss(0.0, 3.0), rng.randint(0, 17)))


def make_case(seed, tmp_path):
    """One expression file (and maybe a labels file) from the seed.

    Returns (expression path, labels path or None).
    """
    rng = random.Random(seed)
    p = rng.randint(1, 5)
    n = rng.randint(2, 9)
    genes = [f"G{j}" for j in range(1, p + 1)]
    mode = rng.choice(["first", "middle", "last", "last", "sidecar", "none"])
    group_pos = {"first": 1, "middle": 1 + (p + 1) // 2, "last": p + 1}.get(mode)
    header = ["sample", *genes]
    if group_pos is not None:
        header.insert(group_pos, rng.choice(["group", "Group", "GROUP"]))
    if rng.random() < 0.08:
        header[rng.randrange(1, len(header))] = rng.choice(["G1", "", " G2 "])
    if rng.random() < 0.03:
        header = ["sample"]

    ids = [f"s{i}" for i in range(n)]
    groups = [1 + (i % 2) for i in range(n)]
    rng.shuffle(groups)
    rows = []
    for sid, grp in zip(ids, groups):
        row = [sid, *(_value(rng) for _ in genes)]
        if group_pos is not None:
            row.insert(group_pos, str(grp))
        rows.append(row)

    value_cols = [i for i in range(1, len(header)) if i != group_pos]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        i = rng.randrange(n)
        kind = rng.choice(
            ["bad", "bad", "nonfinite", "nonfinite", "ragged", "empty_id",
             "dup_id", "bad_group", "small_group", "multiline_id", "pad_id"]
        )
        cols = [c for c in value_cols if c < len(rows[i])]
        if kind == "bad" and cols:
            rows[i][rng.choice(cols)] = rng.choice(NOT_A_NUMBER)
        elif kind == "nonfinite" and cols:
            rows[i][rng.choice(cols)] = rng.choice(NON_FINITE)
        elif kind == "ragged":
            if rng.random() < 0.5:
                rows[i].append("1.0")
            else:
                rows[i].pop()
        elif kind == "empty_id":
            rows[i][0] = rng.choice(["", "  "])
        elif kind == "dup_id" and i:
            rows[i][0] = rows[rng.randrange(i)][0]
        elif kind == "bad_group" and group_pos is not None and group_pos < len(rows[i]):
            rows[i][group_pos] = rng.choice(["3", "", "0", "one", "1.0"])
        elif kind == "small_group" and group_pos is not None:
            keep = rng.choice(["1", "2"])
            for row in rows[1:]:
                if group_pos < len(row):
                    row[group_pos] = keep
        elif kind == "multiline_id":
            rows[i][0] = f"s\n{i}"
        elif kind == "pad_id":
            rows[i][0] = f" {rows[i][0]} "
    if rng.random() < 0.05:
        rows = []  # header only

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lines = []
    for row in [header, *rows]:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue())
    for _ in range(rng.choice([0, 0, 1, 2])):
        blank = rng.choice(["\n", " \n", "\t\n", ",,\n", '""\n'])
        lines.insert(rng.randint(0, len(lines)), blank)
    path = tmp_path / f"expr{seed}.csv"
    with open(path, "w", newline="") as handle:
        handle.write("".join(lines))

    labels = None
    if mode == "sidecar":
        labelled = list(zip(ids, groups))
        if rng.random() < 0.2:
            labelled.pop(rng.randrange(n))
        # Drawn after everything above, so that the files of the cases
        # without a broken labels file are unchanged.
        broken = rng.choice([None, None, None, "bad_group", "dup_late"])
        if broken == "bad_group":
            i = rng.randrange(len(labelled))
            labelled[i] = (labelled[i][0], 3)
        elif broken == "dup_late":
            labelled.append(labelled[rng.randrange(len(labelled))])
        labels = tmp_path / f"labels{seed}.csv"
        labels.write_text(
            "sample,group\n" + "".join(f"{s},{g}\n" for s, g in labelled)
        )
        labels = str(labels)
    return str(path), labels


def outcome(loader, path, labels):
    try:
        sample, gene_index = loader(path, labels)
    except (ParseError, UnlabeledSample, GroupTooSmall) as exc:
        return type(exc).__name__, str(exc)
    return (
        "ok",
        sample.X.shape,
        sample.X.tobytes(),
        sample.g.tobytes(),
        sample.n1,
        sample.n2,
        list(gene_index.items()),
    )


def test_streamed_loader_matches_reference_on_seeded_corpus(tmp_path):
    seen = []
    for seed in range(400):
        path, labels = make_case(seed, tmp_path)
        expected = outcome(reference_load_expression, path, labels)
        got = outcome(load_expression, path, labels)
        assert got == expected, (seed, Path(path).read_text())
        seen.append(expected[0] if expected[0] == "ok" else expected[1])
    # The corpus reaches every outcome the loader has, valid files included.
    text = "\n".join(seen)
    for needle in (
        "ok", "not a number", "not a finite number", "expected", "empty sample id",
        "duplicate sample id", "group must be", "no entry in the labels file",
        "unlabeled", "need at least 2", "need a header row",
        "duplicate gene identifier", "empty gene identifier",
        "header must name at least one gene",
    ):
        assert needle in text, needle
    # Broken labels files, each error at its own line of the labels file.
    assert re.search(r"labels\d+\.csv: line \d+: group must be 1 or 2, got '3'", text)
    assert re.search(r"labels\d+\.csv: line \d+: duplicate sample id", text)


def test_exotic_literals_parse_as_float_of_stripped_cell(tmp_path):
    cells = EXOTIC_VALID
    rows = ["sample," + ",".join(f"G{j}" for j in range(len(cells))) + ",group"]
    for i in range(4):
        rows.append(f"s{i}," + ",".join(cells) + f",{1 + i % 2}")
    path = tmp_path / "exotic.csv"
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(rows) + "\n")
    sample, _ = load_expression(str(path))
    expected = np.array([float(c.strip()) for c in cells])
    assert sample.X.tobytes() == np.tile(expected, (4, 1)).tobytes()
    assert outcome(load_expression, str(path), None) == outcome(
        reference_load_expression, str(path), None
    )


def test_header_only_file_reports_missing_rows_before_header_errors(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("\nsample,G1,G1,group\n\n")
    for loader in (load_expression, reference_load_expression):
        with pytest.raises(ParseError, match="need a header row and at least one"):
            loader(str(path))


def test_non_finite_cell_yields_to_a_later_structural_error(tmp_path):
    # The non-finite cell comes first in the file, but a later row's number
    # or structural error is raised: every row is checked before values.
    text = (
        "sample,G1,group\ns1,nan,1\ns2,1.0,1\ns3,abc,2\ns4,2.0,2\n"
    )
    path = tmp_path / "order.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="line 4, column 'G1': not a number: 'abc'"):
        load_expression(str(path))
    path.write_text(text.replace("abc", "inf"))
    with pytest.raises(ParseError, match="line 2, column 'G1': not a finite number: 'nan'"):
        load_expression(str(path))


def test_loader_peak_memory_is_a_small_multiple_of_the_matrix(tmp_path):
    # 200 samples x 2000 genes: 3.2 MB of float64. Holding every cell's
    # string and a Python float per cell peaked at 15x this; one row at a
    # time stays near 2x (the row arrays, then the stacked matrix). A quoted
    # id near the end sends the file to the csv row reader after the block
    # reader has converted most of it, whose arrays must be freed first.
    rng = np.random.default_rng(8)
    n, p = 200, 2000
    X = rng.normal(size=(n, p))
    expected = np.concatenate([X[0::2], X[1::2]]).tobytes()
    for quoted_row in (None, 190):
        lines = ["sample," + ",".join(f"G{j}" for j in range(p)) + ",group"]
        for i, row in enumerate(X.tolist()):
            sample_id = f'"s{i}"' if i == quoted_row else f"s{i}"
            lines.append(f"{sample_id}," + ",".join(map(repr, row)) + f",{1 + i % 2}")
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        del lines
        tracemalloc.start()
        try:
            sample, _ = load_expression(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(sample, GroupedSample)
        assert sample.X.tobytes() == expected, quoted_row
        assert peak <= 6 * X.nbytes, (quoted_row, peak / X.nbytes)
        del sample


# ---------------------------------------------------------------------------
# Files of several blocks
# ---------------------------------------------------------------------------

# Enough rows for three blocks of plain lines, so that rows in a later block,
# and ids repeated across blocks, reach the checks.
BLOCK_FILE_ROWS = 80


def block_file_lines(group_pos, seed=0, p=4):
    """The lines of an expression file of ``BLOCK_FILE_ROWS`` rows, without
    terminators, as ``[header, row 0, row 1, ...]``: the group column sits
    at ``group_pos`` (None: no group column)."""
    rng = random.Random(seed)
    header = ["sample", *(f"G{j}" for j in range(p))]
    if group_pos is not None:
        header.insert(group_pos, "group")
    lines = [",".join(header)]
    for i in range(BLOCK_FILE_ROWS):
        row = [f"s{i}", *(repr(round(rng.gauss(0.0, 3.0), 6)) for _ in range(p))]
        if group_pos is not None:
            row.insert(group_pos, str(1 + i % 2))
        lines.append(",".join(row))
    return lines


def set_cell(lines, row, gene, text, group_pos):
    """Put ``text`` in gene column ``gene`` of data row ``row``."""
    fields = lines[row + 1].split(",")
    col = 1 + gene
    if group_pos is not None and col >= group_pos:
        col += 1
    fields[col] = text
    lines[row + 1] = ",".join(fields)


def set_id(lines, row, text):
    """Put ``text`` in the sample id field of data row ``row``."""
    fields = lines[row + 1].split(",")
    fields[0] = text
    lines[row + 1] = ",".join(fields)


BLOCK_CASES = {
    "valid": lambda lines, gp: None,
    "bad_cell_late": lambda lines, gp: set_cell(lines, 70, 2, "abc", gp),
    "non_finite_late": lambda lines, gp: set_cell(lines, 70, 1, "-inf", gp),
    "extra_field_late": lambda lines, gp: lines.__setitem__(71, lines[71] + ",1.0"),
    "missing_field_late": lambda lines, gp: lines.__setitem__(
        71, lines[71].rsplit(",", 1)[0]
    ),
    "duplicate_id_across_blocks": lambda lines, gp: set_id(lines, 75, "s3"),
    "empty_id_late": lambda lines, gp: set_id(lines, 66, " "),
    "padded_id_late": lambda lines, gp: set_id(lines, 66, " s66\t"),
    "non_finite_then_bad_cell": lambda lines, gp: (
        set_cell(lines, 5, 0, "nan", gp), set_cell(lines, 50, 3, "1e", gp)
    ),
    "two_non_finite_blocks": lambda lines, gp: (
        set_cell(lines, 50, 3, "inf", gp), set_cell(lines, 5, 2, "NaN", gp)
    ),
    "non_finite_then_extra_field": lambda lines, gp: (
        set_cell(lines, 5, 0, "nan", gp),
        lines.__setitem__(71, lines[71] + ",2"),
    ),
    "blank_lines_in_blocks": lambda lines, gp: (
        lines.insert(40, ",," + "," * (gp is not None)),
        lines.insert(20, " \t"),
        lines.insert(60, ""),
    ),
    "blank_lines_then_bad_cell": lambda lines, gp: (
        lines.insert(40, ",,,"),
        lines.insert(10, ""),
        set_cell(lines, 70, 0, "x1", gp),
    ),
    "exotic_cells_late": lambda lines, gp: (
        set_cell(lines, 60, 0, "1_000", gp),
        set_cell(lines, 61, 1, "١٢", gp),
        set_cell(lines, 62, 2, "\x1f2", gp),
    ),
    "quoted_id_late": lambda lines, gp: set_id(lines, 40, '"s40"'),
    "quoted_id_then_bad_cell": lambda lines, gp: (
        set_id(lines, 40, '"s\n40"'), set_cell(lines, 70, 1, "abc", gp)
    ),
    "nul_late_then_ragged": lambda lines, gp: (
        set_id(lines, 40, "s\x0040"),
        lines.__setitem__(71, lines[71] + ",1.0"),
    ),
    "nul_cell_late": lambda lines, gp: set_cell(lines, 45, 0, "1.5\x00", gp),
    "unicode_cells_late": lambda lines, gp: (
        set_cell(lines, 60, 0, "\xa01.5", gp), set_cell(lines, 61, 3, "１２", gp)
    ),
}

BLOCK_LABELS = {
    # (group column position, labels file: None, "all" or "missing_late")
    "group_last": (5, None),
    "group_first": (1, None),
    "group_middle": (3, None),
    "sidecar": (None, "all"),
    "sidecar_missing_late": (None, "missing_late"),
}


@pytest.mark.parametrize("terminator", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("labels_mode", sorted(BLOCK_LABELS))
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_loader_matches_reference_across_blocks(
    tmp_path, case, labels_mode, terminator
):
    group_pos, sidecar = BLOCK_LABELS[labels_mode]
    lines = block_file_lines(group_pos)
    BLOCK_CASES[case](lines, group_pos)
    path = tmp_path / "expr.csv"
    with open(path, "w", newline="") as handle:
        handle.write(terminator.join(lines) + terminator)
    labels = None
    if sidecar is not None:
        rows = [(f"s{i}", 1 + i % 2) for i in range(BLOCK_FILE_ROWS)]
        if sidecar == "missing_late":
            del rows[72]
        labels = tmp_path / "labels.csv"
        labels.write_text("sample,group\n" + "".join(f"{s},{g}\n" for s, g in rows))
        labels = str(labels)
    try:
        expected = outcome(reference_load_expression, str(path), labels)
    except csv.Error as exc:
        # Before Python 3.11 the csv module refuses a NUL, and the loader
        # reports the reader's error at the line that holds it.
        first = next(i for i, line in enumerate(lines, start=1) if "\0" in line)
        expected = ("ParseError", f"{path}: line {first}: {exc}")
    assert outcome(load_expression, str(path), labels) == expected
    if case == "valid" and sidecar != "missing_late":
        assert expected[0] == "ok"


def test_loader_matches_reference_after_a_line_over_the_field_limit(tmp_path):
    # A line longer than the csv field limit, each of whose fields is
    # within it, is read by the csv module, and so is the rest of the file.
    lines = block_file_lines(5)
    limit = 2 * max(len(line) for line in lines)
    pad = " " * (limit // 3)
    set_cell(lines, 50, 0, pad + "1.5", 5)
    set_cell(lines, 50, 2, "2.5" + pad, 5)
    path = tmp_path / "expr.csv"
    old = csv.field_size_limit(limit)
    try:
        for bad_row in (None, 70):
            if bad_row is not None:
                set_cell(lines, bad_row, 1, "abc", 5)
            path.write_text("\n".join(lines) + "\n")
            expected = outcome(reference_load_expression, str(path), None)
            assert outcome(load_expression, str(path), None) == expected
        assert expected[1] == f"{path}: line 72, column 'G1': not a number: 'abc'"
        # A field over the limit is the csv module's error, at its line.
        set_cell(lines, 50, 0, pad * 4, 5)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_expression(str(path))
        assert str(info.value) == (
            f"{path}: line 52: field larger than field limit ({limit})"
        )
    finally:
        csv.field_size_limit(old)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_loader_reads_a_late_quoted_file_from_a_pipe(tmp_path):
    # A pipe cannot be read twice, so the csv row reader reads it from the
    # start, as it reads a regular file that the block reader gives up.
    lines = block_file_lines(5)
    set_id(lines, 70, '"s70"')
    text = "\n".join(lines) + "\n"
    path = tmp_path / "expr.csv"
    path.write_text(text)
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        got = outcome(load_expression, str(pipe), None)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    expected = outcome(reference_load_expression, str(path), None)
    assert expected[0] == "ok"
    assert got == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("case", ["late_quote", "bad_group_late"])
def test_loader_reads_a_labels_file_from_a_pipe_once(tmp_path, case):
    # Both readers look up the labels file, but it is read once per load, so
    # it can come through a pipe, as ``--labels <(...)`` gives it. Here the
    # block reader reads the labels and then gives the expression file up:
    # at a late quoted id, or at the labels file's own error.
    lines = block_file_lines(None)
    rows = [f"s{i},{1 + i % 2}" for i in range(BLOCK_FILE_ROWS)]
    if case == "late_quote":
        set_id(lines, 70, '"s70"')
    else:
        rows[72] = "s72,3"
    path = tmp_path / "expr.csv"
    path.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("sample,group\n" + "\n".join(rows) + "\n")
    expected = outcome(reference_load_expression, str(path), str(labels))
    assert expected[0] == ("ok" if case == "late_quote" else "ParseError")
    # An anonymous pipe opened a second time is at its end, not blocked, so
    # a second read would fail the test instead of hanging it.
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as writer:
            writer.write(labels.read_bytes())
        pipe = f"/dev/fd/{read_end}"
        got = outcome(load_expression, str(path), pipe)
    finally:
        os.close(read_end)
    assert got == tuple(
        field.replace(str(labels), pipe) if isinstance(field, str) else field
        for field in expected
    )


def test_plain_blocks_are_converted_by_loadtxt(tmp_path, monkeypatch):
    # On a file of plain lines every block of rows is converted by one
    # np.loadtxt call, and none falls back to the row-at-a-time path.
    lines = block_file_lines(5)
    path = tmp_path / "expr.csv"
    path.write_text("\n".join(lines) + "\n")
    calls = []
    loadtxt = np.loadtxt

    def spy(rows, **kwargs):
        calls.append(len(rows))
        return loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    got = outcome(load_expression, str(path), None)
    monkeypatch.undo()
    assert got == outcome(reference_load_expression, str(path), None)
    assert sum(calls) == BLOCK_FILE_ROWS
    assert len(calls) == -(-BLOCK_FILE_ROWS // max(calls))


def test_rows_before_an_undecodable_byte_are_checked_first(tmp_path):
    # The decoder reads the file in chunks of 8192 bytes, so it meets a bad
    # byte ahead of the row being checked. Here the bad byte is in the second
    # chunk and in the first block of rows. Every row before it is checked
    # first, as a row-at-a-time reader would.
    lines = block_file_lines(5, p=60)[:21]
    head = "\n".join(lines) + "\n"
    assert 8192 < len(head.encode()) < 16384
    path = tmp_path / "expr.csv"
    for row, cell, expected in (
        (3, "abc", "line 5, column 'G0': not a number: 'abc'"),
        (3, "inf", "'utf-8' codec can't decode byte 0xff"),
        (None, None, "'utf-8' codec can't decode byte 0xff"),
    ):
        text = list(lines)
        if row is not None:
            set_cell(text, row, 0, cell, 5)
        path.write_bytes(("\n".join(text) + "\n").encode() + b"s\xff,1,2\n")
        with pytest.raises(ParseError) as info:
            load_expression(str(path))
        assert str(info.value).startswith(f"{path}: {expected}")
