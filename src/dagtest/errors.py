"""Exception types shared across the library.

Every error raised on purpose by this package derives from :class:`DagTestError`,
so callers (and the CLI) can catch one base class and report cleanly. The
number rules that config checks apply before raising a :class:`ConfigError`
live here too, so that every module holding a config section can use them.
"""

from __future__ import annotations

import numbers
import sys


class DagTestError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Graph construction and parsing
# ---------------------------------------------------------------------------

class MalformedLine(DagTestError):
    """An edge-list line could not be parsed.

    Attributes:
        lineno: 1-based line number in the source document.
    """

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {reason}")


class DuplicateEdge(DagTestError):
    """The same directed edge appeared more than once."""


class SelfLoop(DagTestError):
    """An edge of the form j -> j was supplied where none is allowed."""


class CycleDetected(DagTestError):
    """The directed graph contains a cycle.

    Attributes:
        cycle: node indices of one offending cycle, in traversal order.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"graph contains a cycle through nodes {self.cycle}")


class InsufficientNonEdges(DagTestError):
    """Redundant-edge perturbation asked for more forward non-edges than exist."""


# ---------------------------------------------------------------------------
# Model estimation
# ---------------------------------------------------------------------------

class ValueOutOfRange(DagTestError):
    """A sample holds a NaN, an infinity, or a value so large that some
    statistic's sums of fourth powers would overflow."""


class RankDeficientDesign(DagTestError):
    """The (centered) parent design block is numerically rank deficient."""


class InsufficientSamples(DagTestError):
    """Too few samples for the requested fit or statistic."""


class ZeroResidualVariance(DagTestError):
    """A node was fit exactly, which would make its precision entry infinite."""


# ---------------------------------------------------------------------------
# Test statistics
# ---------------------------------------------------------------------------

class SingularCovariance(DagTestError):
    """The pooled sample covariance matrix is singular."""


class DimensionTooLarge(DagTestError):
    """The classical T-squared test needs n1 + n2 > p + 1."""


class SingularSubmatrix(DagTestError):
    """A parent-set principal submatrix of the covariance is singular."""


# ---------------------------------------------------------------------------
# Data ingestion and configuration
# ---------------------------------------------------------------------------

class ParseError(DagTestError):
    """A data file violates its format; the message pinpoints row/column."""


class UnlabeledSample(DagTestError):
    """An expression-matrix sample has no group label."""


class GroupTooSmall(DagTestError):
    """Each group must contribute at least two samples."""


class EmptyIntersection(DagTestError):
    """No pathway gene is present in the expression data."""


class ConfigError(DagTestError):
    """A simulation config document is invalid.

    Attributes:
        path: JSON-pointer-style location of the offending entry, e.g. "/nb_success".
        reason: human-readable description of the constraint that failed.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# JSON reads true and false as Python bools, which are ints; a config field
# takes neither as a number.
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Every number field is read as a float, so an integer beyond the float range
# is no number either.
def _is_number(value) -> bool:
    if isinstance(value, int):
        return _is_int(value) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real)
