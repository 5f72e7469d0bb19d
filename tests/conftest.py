"""Fixtures shared by several test modules."""

import pytest

from _synth import two_city_records, write_csv


def _write_synth_csv(path):
    write_csv(path, two_city_records(4000, 1600, 0.3, seed=5, growth=0.03))
    return path


@pytest.fixture
def synth_csv(tmp_path):
    """Canonical sales file of the planted-trade market: 4000 buyers, 1600 licenses."""
    return _write_synth_csv(tmp_path / "synth.csv")


@pytest.fixture(scope="module")
def module_synth_csv(tmp_path_factory):
    """`synth_csv` written once for a module, for tests that run many examples."""
    return _write_synth_csv(tmp_path_factory.mktemp("synth") / "synth.csv")
