"""Shared pytest setup for the unit suite."""

import warnings

# When a hypothesis test fails, hypothesis's report imports its patching
# module, which imports libcst, whose import warns that
# mypy_extensions.TypedDict is deprecated. Under ``-W error`` that warning
# ends the run with INTERNALERROR instead of the falsifying example. Import
# the module once here with that one warning silenced; every other warning
# keeps its filter. Without hypothesis or libcst there is nothing to import.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message=r"mypy_extensions\.TypedDict is deprecated",
            category=DeprecationWarning,
        )
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
