"""Keyed streams seeded in one pass against NumPy's own `SeedSequence` and `PCG64`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import streams
from diftrans.streams import keyed_streams, pcg64_states

#: Seeds of one, two and three uint32 words: three words with two more key
#: parts overflow the four-word pool, which takes SeedSequence's extra mixing.
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96 - 1),
)
KEYS = st.one_of(
    st.tuples(SEEDS, st.integers(0, 2**40)),
    st.tuples(SEEDS, st.integers(0, 10**6), st.integers(0, 2**33)),
)


def numpy_state(key) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence(entropy=key)).state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(KEYS, min_size=1, max_size=8))
def test_states_match_numpy(keys):
    # Keys of different widths share one batch, as a subsample's draws would
    # if the draw index passed 2^32.
    assert pcg64_states(keys) == [numpy_state(key) for key in keys]


def test_pinned_keys_match_numpy():
    keys = [(0, 0), (0, 0, 0), (2**64 - 1, 7, 3), (2**64, 0, 1), (99999999999999999999, 199, 3)]
    keys += [(5,), (1, 2, 3, 4, 5, 6, 7)]
    assert pcg64_states(keys) == [numpy_state(key) for key in keys]


def test_streams_draw_as_default_rng(monkeypatch):
    # Passes of four keys, so the calls below move between passes.
    monkeypatch.setattr(streams, "PASS_KEYS", 4)
    keys = [(99999999999999999999, k, side) for k in range(3) for side in range(2)]
    stream = keyed_streams(keys.__getitem__, len(keys))
    counts = np.array([5, 0, 40, 7, 12])
    # Out of order, and one key twice: each call restarts that key's stream.
    for i in (3, 0, 5, 3, 1):
        want = np.random.default_rng(np.random.SeedSequence(entropy=keys[i]))
        got = stream(i)
        assert np.array_equal(got.multivariate_hypergeometric(counts, 30), want.multivariate_hypergeometric(counts, 30))
        assert np.array_equal(got.multinomial(50, [0.2, 0.5, 0.3]), want.multinomial(50, [0.2, 0.5, 0.3]))
        assert got.random() == want.random()


def test_negative_key_part_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        pcg64_states([(0, -1)])
