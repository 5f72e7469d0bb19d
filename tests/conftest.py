"""Fixtures shared by several test modules."""

import pytest

from _synth import two_city_records, write_csv


@pytest.fixture
def synth_csv(tmp_path):
    """Canonical sales file of the planted-trade market: 4000 buyers, 1600 licenses."""
    path = tmp_path / "synth.csv"
    write_csv(path, two_city_records(4000, 1600, 0.3, seed=5, growth=0.03))
    return path
