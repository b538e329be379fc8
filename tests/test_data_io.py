"""Expression/label loading, pathway alignment, and serialization helpers."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dagtest.data_io import (
    align_pathway,
    csv_text,
    dump_json,
    format_number,
    load_expression,
    load_labels,
    log2_shift_transform,
)
from dagtest.errors import (
    EmptyIntersection,
    GroupTooSmall,
    ParseError,
    UnlabeledSample,
)
from dagtest.pathway import PathwayDag

EXPR_WITH_GROUP = """\
sample,G1,G2,G3,group
s1,1.5,2.0,3.0,1
s2,1.0,2.5,3.5,1
s3,4.0,5.0,6.0,2
s4,4.5,5.5,6.5,2
"""

EXPR_NO_GROUP = """\
sample,G1,G2
s1,1.0,2.0
s2,1.5,2.5
s3,4.0,5.0
s4,4.5,5.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# load_labels
# ---------------------------------------------------------------------------

def test_load_labels_basic_and_header(tmp_path):
    path = write(tmp_path, "lab.csv", "sample,group\ns1,1\ns2,2\n")
    assert load_labels(path) == {"s1": 1, "s2": 2}
    bare = write(tmp_path, "bare.csv", "s1,1\ns2,2\n")
    assert load_labels(bare) == {"s1": 1, "s2": 2}


def test_load_labels_rejects_bad_rows(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        load_labels(write(tmp_path, "a.csv", "s1,1\ns2,3\n"))
    with pytest.raises(ParseError, match="2 fields"):
        load_labels(write(tmp_path, "b.csv", "s1,1,extra\n"))
    with pytest.raises(ParseError, match="duplicate"):
        load_labels(write(tmp_path, "c.csv", "s1,1\ns1,2\n"))


def test_load_labels_rejects_empty_sample_id(tmp_path):
    path = write(tmp_path, "lab.csv", "sample,group\ns1,1\n,2\ns2,2\n")
    with pytest.raises(ParseError) as info:
        load_labels(path)
    assert str(info.value) == f"{path}: line 3: empty sample id"
    # A whitespace-only id is empty too; a header row may leave it blank.
    with pytest.raises(ParseError, match=re.escape("line 2: empty sample id")):
        load_labels(write(tmp_path, "b.csv", "s1,1\n  ,2\n"))
    assert load_labels(write(tmp_path, "c.csv", ",group\ns1,1\n")) == {"s1": 1}


def test_load_labels_header_is_first_non_blank_row(tmp_path):
    path = write(tmp_path, "lab.csv", "\n \nsample,group\ns1,1\n\ns2,2\n")
    assert load_labels(path) == {"s1": 1, "s2": 2}
    # Only that row may be a header.
    with pytest.raises(ParseError, match=re.escape("line 3: group must be")):
        load_labels(write(tmp_path, "b.csv", "\ns1,1\nsample,group\n"))


def test_load_labels_names_file_lines(tmp_path):
    # A quoted sample id spans lines 2-3, so the bad row is on line 4.
    path = write(tmp_path, "lab.csv", 'sample,group\n"s\n1",1\ns2,3\n')
    with pytest.raises(
        ParseError, match=re.escape("line 4: group must be 1 or 2, got '3'")
    ):
        load_labels(path)


@pytest.mark.parametrize("loader", [load_labels, load_expression])
def test_csv_reader_errors_are_parse_errors(tmp_path, loader):
    # The csv module refuses a field over 131072 characters.
    big = "1" * 140_000
    text = f"sample,group\ns1,1\n\ns2,{big}\n"
    path = write(tmp_path, "big.csv", text)
    with pytest.raises(ParseError) as info:
        loader(path)
    assert str(info.value) == (
        f"{path}: line 4: field larger than field limit (131072)"
    )


@pytest.mark.parametrize("loader", [load_labels, load_expression])
def test_undecodable_bytes_are_parse_errors_naming_the_file(tmp_path, loader):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"sample,group\ns1,1\ns\xff2,2\n")
    with pytest.raises(ParseError) as info:
        loader(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert "can't decode byte 0xff" in message
    assert "line" not in message


def test_load_expression_row_error_precedes_later_csv_error(tmp_path):
    # Rows are checked as they are read, so an earlier row's error wins.
    text = (
        "sample,G1,group\ns1,abc,1\ns2,1.0,1\n"
        f"s3,{'1' * 140_000},2\ns4,2.0,2\n"
    )
    with pytest.raises(ParseError, match="line 2, column 'G1': not a number"):
        load_expression(write(tmp_path, "late.csv", text))


# ---------------------------------------------------------------------------
# load_expression
# ---------------------------------------------------------------------------

def test_load_expression_with_group_column(tmp_path):
    sample, gene_index = load_expression(write(tmp_path, "e.csv", EXPR_WITH_GROUP))
    assert gene_index == {"G1": 0, "G2": 1, "G3": 2}
    assert sample.n1 == 2 and sample.n2 == 2
    assert_allclose(sample.X[0], [1.5, 2.0, 3.0])
    assert_allclose(sample.X[2], [4.0, 5.0, 6.0])


def test_load_expression_group_order_restored(tmp_path):
    # Group-2 rows listed first must end up after the group-1 rows, with
    # within-group file order preserved.
    text = (
        "sample,G1,G2,group\n"
        "s3,4.0,5.0,2\n"
        "s1,1.0,2.0,1\n"
        "s4,4.5,5.5,2\n"
        "s2,1.5,2.5,1\n"
    )
    sample, _ = load_expression(write(tmp_path, "e.csv", text))
    assert_allclose(sample.X[:, 0], [1.0, 1.5, 4.0, 4.5])


def test_load_expression_sidecar_takes_precedence(tmp_path):
    expr = write(tmp_path, "e.csv", EXPR_WITH_GROUP)
    labels = write(
        tmp_path, "lab.csv", "sample,group\ns1,1\ns2,2\ns3,2\ns4,1\n"
    )
    sample, _ = load_expression(expr, labels)
    # Sidecar reassigns s2 to group 2 and s4 to group 1.
    assert sample.n1 == 2 and sample.n2 == 2
    assert_allclose(sample.X[:, 0], [1.5, 4.5, 1.0, 4.0])


def test_load_expression_unlabeled_sample_named(tmp_path):
    expr = write(tmp_path, "e.csv", EXPR_WITH_GROUP)
    labels = write(tmp_path, "lab.csv", "sample,group\ns1,1\ns2,1\ns3,2\n")
    with pytest.raises(UnlabeledSample, match="s4"):
        load_expression(expr, labels)
    with pytest.raises(UnlabeledSample, match="s1"):
        load_expression(write(tmp_path, "f.csv", EXPR_NO_GROUP))


def test_load_expression_structural_errors(tmp_path):
    with pytest.raises(ParseError, match="line 3"):
        load_expression(
            write(tmp_path, "ragged.csv", "sample,G1,group\ns1,1.0,1\ns2,1.0\n")
        )
    with pytest.raises(ParseError, match="'G1'"):
        load_expression(
            write(
                tmp_path,
                "nan.csv",
                "sample,G1,group\ns1,1.0,1\ns2,low,1\ns3,2.0,2\ns4,2.0,2\n",
            )
        )
    for cell in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(ParseError, match=r"line 3, column 'G2': not a finite"):
            load_expression(
                write(
                    tmp_path,
                    "nonfinite.csv",
                    "sample,G1,G2,group\ns1,1.0,1.0,1\n"
                    f"s2,1.5,{cell},1\ns3,2.0,2.0,2\ns4,2.0,2.5,2\n",
                )
            )
    with pytest.raises(ParseError, match="duplicate sample"):
        load_expression(
            write(
                tmp_path,
                "dup.csv",
                "sample,G1,group\ns1,1.0,1\ns1,2.0,1\ns3,2.0,2\ns4,2.0,2\n",
            )
        )
    with pytest.raises(ParseError, match="duplicate gene"):
        load_expression(
            write(tmp_path, "dupg.csv", "sample,G1,G1,group\ns1,1,2,1\n")
        )
    # Blank lines are skipped but still counted: messages name file lines.
    blank = "sample,G1,G2,group\n\ns1,1.0,1.0,1\n \n"
    for row, message in (
        ("s2,1.5,abc,1", "line 5, column 'G2': not a number: 'abc'"),
        ("s2,1.5,inf,1", "line 5, column 'G2': not a finite number: 'inf'"),
        ("s2,1.5", "line 5: expected 4 fields, got 2"),
        (",1.5,2.5,1", "line 5: empty sample id"),
        ("s1,1.5,2.5,1", "line 5: duplicate sample id 's1'"),
        ("s2,1.5,2.5,3", "line 5: group must be 1 or 2, got '3'"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            load_expression(
                write(
                    tmp_path,
                    "blank.csv",
                    blank + row + "\ns3,2.0,2.0,2\ns4,2.0,2.5,2\n",
                )
            )
    # A quoted field spanning lines: a row is numbered by its first line.
    quoted = 'sample,G1,G2,group\n"s\n1",1.0,1.0,1\n\ns2,abc,1.0,1\n'
    with pytest.raises(ParseError, match=re.escape("line 5, column 'G1'")):
        load_expression(write(tmp_path, "quoted.csv", quoted))
    quoted = 'sample,G1,G2,group\ns1,1.0,"1.\n5",1\n'
    with pytest.raises(ParseError, match=re.escape("line 2, column 'G2'")):
        load_expression(write(tmp_path, "quoted2.csv", quoted))


def test_load_expression_group_too_small(tmp_path):
    text = "sample,G1,group\ns1,1.0,1\ns2,2.0,2\ns3,3.0,2\ns4,4.0,2\n"
    with pytest.raises(GroupTooSmall, match="group 1"):
        load_expression(write(tmp_path, "small.csv", text))


# ---------------------------------------------------------------------------
# align_pathway
# ---------------------------------------------------------------------------

def labeled_dag():
    return PathwayDag.from_edges(
        [(0, 1), (1, 2), (0, 3)],
        p=4,
        labels=("G1", "G2", "G3", "G4"),
    )


def test_align_pathway_identity_when_all_measured():
    dag = labeled_dag()
    gene_index = {"G1": 0, "G2": 1, "G3": 2, "G4": 3, "EXTRA": 4}
    aligned, dropped = align_pathway(dag, gene_index)
    assert aligned is dag
    assert dropped == ()


def test_align_pathway_drops_unmeasured_gene():
    dag = labeled_dag()
    gene_index = {"G1": 0, "G3": 1, "G4": 2}
    aligned, dropped = align_pathway(dag, gene_index)
    assert dropped == ("G2",)
    assert aligned.node_labels == ("G1", "G3", "G4")
    # Edges through the dropped node vanish; (0,3) survives remapped.
    assert aligned.edges == frozenset({(0, 2)})
    assert aligned.p == 3


def test_align_pathway_empty_intersection():
    dag = labeled_dag()
    with pytest.raises(EmptyIntersection):
        align_pathway(dag, {"OTHER": 0})


def test_align_pathway_requires_labels():
    dag = PathwayDag.from_edges([(0, 1)], p=2)
    with pytest.raises(ValueError):
        align_pathway(dag, {"G1": 0})


# ---------------------------------------------------------------------------
# transforms and serialization
# ---------------------------------------------------------------------------

def test_log2_shift_transform():
    X = np.array([[0.0, 3.0], [7.0, 15.0]])
    out = log2_shift_transform(X)
    assert_allclose(out, [[0.0, 2.0], [3.0, 4.0]])
    assert out.min() == 0.0


def test_format_number():
    assert format_number(True) == "1"
    assert format_number(False) == "0"
    assert format_number(7) == "7"
    assert format_number(0.1) == "0.1"
    assert format_number(np.float64(1 / 3)) == repr(1 / 3)
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2  # round trip


def test_dump_json_stable_layout():
    text = dump_json({"b": 1, "a": [1.5, None]})
    assert text == '{\n  "b": 1,\n  "a": [\n    1.5,\n    null\n  ]\n}\n'
    assert json.loads(text) == {"b": 1, "a": [1.5, None]}


def test_csv_text_layout():
    text = csv_text(["x", "name"], [[0.5, "alpha"], [2, "beta"], [True, "c"]])
    assert text == "x,name\n0.5,alpha\n2,beta\n1,c\n"
    assert "\r" not in text
