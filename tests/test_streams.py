"""Keyed streams seeded in one pass against NumPy's own `SeedSequence` and `PCG64`."""

import math

import numpy as np
import pytest

from diftrans import streams
from diftrans.streams import keyed_streams

#: A seed of each width, as `keyed_streams` takes them: three words with two
#: or more index part words overflow the four-word pool, which takes
#: SeedSequence's extra mixing.
WIDE_SEEDS = [7, 2**64 - 1, 99999999999999999999 * 2**16]


def numpy_state(key) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence(entropy=key)).state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


def stream_state(gen) -> tuple[int, int]:
    return gen.bit_generator.state["state"]["state"], gen.bit_generator.state["state"]["inc"]


def test_streams_draw_as_default_rng(monkeypatch):
    # Passes of four keys, so the calls below move between passes.
    monkeypatch.setattr(streams, "PASS_KEYS", 4)
    seed, shape = 99999999999999999999, (3, 2)
    stream = keyed_streams(seed, shape)
    counts = np.array([5, 0, 40, 7, 12])
    # Out of order, and one key twice: each call restarts that key's stream.
    for i in (3, 0, 5, 3, 1):
        key = (seed, *divmod(i, 2))
        want = np.random.default_rng(np.random.SeedSequence(entropy=key))
        got = stream(i)
        assert np.array_equal(got.multivariate_hypergeometric(counts, 30), want.multivariate_hypergeometric(counts, 30))
        assert np.array_equal(got.multinomial(50, [0.2, 0.5, 0.3]), want.multinomial(50, [0.2, 0.5, 0.3]))
        assert got.random() == want.random()


@pytest.mark.parametrize("seed", WIDE_SEEDS, ids=["1-word", "2-word", "3-word"])
@pytest.mark.parametrize("shape", [(11,), (6, 2), (3, 4)], ids=["n", "n-2", "n-4"])
@pytest.mark.parametrize("pass_keys", [5, 4096])
def test_array_seeded_streams_match_numpy(monkeypatch, seed, shape, pass_keys):
    # Passes of five keys end inside a draw's sides, and the last pass is short.
    monkeypatch.setattr(streams, "PASS_KEYS", pass_keys)
    stream = keyed_streams(seed, shape)
    for i in range(int(np.prod(shape))):
        key = (seed, *(int(part) for part in np.unravel_index(i, shape)))
        assert stream_state(stream(i)) == numpy_state(key), key


def test_index_parts_past_uint32_are_rejected(monkeypatch):
    # A dimension of 2^32 keeps every index part in one entropy word, up to
    # the last; one past it is refused before any state is computed.
    monkeypatch.setattr(streams, "PASS_KEYS", 4)
    for shape in ((2**32,), (3, 2**32), (2, 2**32, 3)):
        for seed in WIDE_SEEDS:
            stream = keyed_streams(seed, shape)
            for i in (2**32 - 1, math.prod(shape) - 1):
                key = (seed, *(int(part) for part in np.unravel_index(i, shape)))
                assert stream_state(stream(i)) == numpy_state(key), key
    monkeypatch.setattr(streams, "_states", lambda *args: pytest.fail("states computed"))
    for shape in ((2**32 + 1,), (3, 2**33 + 1), (2**33, 2)):
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            keyed_streams(7, shape)


def test_negative_key_part_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        keyed_streams(-1, (2,))
