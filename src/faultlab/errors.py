"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

from __future__ import annotations


class FaultLabError(Exception):
    """Base class for all faultlab errors."""


class ConfigError(FaultLabError):
    """Bad parameter or unusable configuration (caller mistake)."""


class DataError(FaultLabError):
    """Input data violates a precondition (malformed, empty, misaligned)."""


class NumericError(FaultLabError):
    """A computation failed numerically (singular system, non-finite result)."""
