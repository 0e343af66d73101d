"""Shared fixtures."""

import numpy as np
import pytest

from irtr_lab import measurements, psf_core


@pytest.fixture
def rung_log(monkeypatch):
    """The rung of each row, per ``overlap_passes`` call: the last pass the row took.

    Each call of ``overlap_passes`` appends an array with an entry per row.
    """
    calls = []
    original = psf_core.overlap_passes

    def recording(psf, points, *args, **kwargs):
        rungs = np.full(len(points), -1)
        calls.append(rungs)
        for index, rows, *block in original(psf, points, *args, **kwargs):
            rungs[rows] = index
            yield index, rows, *block

    monkeypatch.setattr(psf_core, "overlap_passes", recording)
    monkeypatch.setattr(measurements, "overlap_passes", recording)
    return calls
