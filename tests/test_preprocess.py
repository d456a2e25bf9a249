"""Pair smoothing against brute-force oracles."""

import numpy as np
import pytest

from faultlab import DataError, Modality, Series, smooth_pairs


def mk(values, interval=600.0, start=0.0):
    return Series("n1", Modality.BOX_TEMP, start, interval, np.asarray(values, dtype=float))


def test_smooth_pairs_examples():
    out = smooth_pairs(mk([1, 3, 5, 7], interval=600.0))
    assert np.array_equal(out.values, [2.0, 6.0])
    assert out.sample_interval == 1200.0

    const = smooth_pairs(mk([4.2, 4.2, 4.2, 4.2]))
    assert np.array_equal(const.values, [4.2, 4.2])

    odd = smooth_pairs(mk([1, 3, 5]))  # trailing 5 dropped
    assert np.array_equal(odd.values, [2.0])


def test_smooth_pairs_metadata():
    s = mk([1, 2, 3, 4, 5, 6], interval=600.0, start=5000.0)
    out = smooth_pairs(s)
    assert out.start_time == 5000.0
    assert out.sample_interval == 1200.0
    assert out.node_id == s.node_id and out.modality == s.modality
    assert len(out) == 3


def test_smooth_pairs_needs_two_samples():
    with pytest.raises(DataError):
        smooth_pairs(mk([1.0]))


def test_smooth_pairs_halves_length_and_preserves_mean():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        vals = rng.integers(-50, 50, size=n).astype(float)  # integer-valued: sums exact
        out = smooth_pairs(mk(vals))
        assert len(out) == n // 2
        consumed = vals[: 2 * (n // 2)]
        assert np.mean(out.values) == np.mean(consumed)

