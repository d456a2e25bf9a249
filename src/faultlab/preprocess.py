"""Series conditioning: pair averaging."""

from __future__ import annotations

from .errors import DataError
from .series import Series

__all__ = ["smooth_pairs"]


def smooth_pairs(s: Series) -> Series:
    """Average non-overlapping pairs of consecutive samples.

    Output sample k is (s[2k] + s[2k+1]) / 2; the sampling interval doubles
    and a trailing odd sample is dropped. The start time is unchanged.
    """
    if len(s) < 2:
        raise DataError("smooth_pairs needs at least 2 samples")
    v = s.values
    n = (len(v) // 2) * 2
    out = (v[0:n:2] + v[1:n:2]) / 2.0
    return Series(s.node_id, s.modality, s.start_time, s.sample_interval * 2.0, out)

