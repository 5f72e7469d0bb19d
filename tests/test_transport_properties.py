"""Properties of the transport kernel on random supports.

Supports are small sorted price sets, masses come from integer counts with
zeros allowed, target supports are drawn independently, equal to the source
or shifted past it (disjoint), and bandwidths run past the combined span.
The scalar and batched recurrences run the same float operations, so they
must agree to rounding; the LP and the plan-building greedy sum differently,
so they get the looser tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans.errors import ValidationError
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost, ot_cost_batch, solve_ot

from _oracles import lp_transport_cost

BATCH_TOL = 1e-14
ORACLE_TOL = 1e-12
#: Rounding allowance for comparisons between costs of different instances.
ROUNDING_TOL = 1e-14

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True, database=None)

supports = st.lists(st.integers(0, 300), min_size=1, max_size=7, unique=True).map(sorted)
bandwidths = st.integers(0, 1500)


def counts_on(support):
    return st.lists(
        st.integers(0, 9), min_size=len(support), max_size=len(support)
    ).map(lambda counts: counts if any(counts) else [1] + counts[1:])


@st.composite
def pmfs_on(draw, support):
    return PricePMF.from_counts(support, draw(counts_on(support)))


@st.composite
def support_pairs(draw):
    src = draw(supports)
    kind = draw(st.sampled_from(["independent", "same", "disjoint"]))
    if kind == "same":
        return src, src
    if kind == "disjoint":
        return src, [x + 2000 for x in draw(supports)]
    return src, draw(supports)


@st.composite
def instances(draw):
    src, tgt = draw(support_pairs())
    return draw(pmfs_on(src)), draw(pmfs_on(tgt)), draw(bandwidths)


@PROPERTIES
@given(st.data())
def test_batch_equals_scalar(data):
    src, tgt = data.draw(support_pairs())
    reps = data.draw(st.integers(1, 5))
    pres = [data.draw(pmfs_on(src)) for _ in range(reps)]
    posts = [data.draw(pmfs_on(tgt)) for _ in range(reps)]
    grid = data.draw(st.lists(bandwidths, min_size=1, max_size=6))
    batch = ot_cost_batch(pres, posts, grid)
    assert batch.shape == (reps, len(grid))
    for r, (a, b) in enumerate(zip(pres, posts)):
        for g, d in enumerate(grid):
            assert abs(batch[r, g] - ot_cost(a, b, d)) <= BATCH_TOL


@PROPERTIES
@given(instances())
def test_matches_lp_and_greedy_plan(instance):
    a, b, d = instance
    cost = ot_cost(a, b, d)
    assert 0.0 <= cost <= 1.0
    assert abs(cost - lp_transport_cost(a, b, d)) <= ORACLE_TOL
    assert abs(cost - solve_ot(a, b, d).cost) <= ORACLE_TOL


@PROPERTIES
@given(instances(), bandwidths)
def test_nonincreasing_in_d(instance, extra):
    a, b, d = instance
    assert ot_cost(a, b, d + extra) <= ot_cost(a, b, d) + ROUNDING_TOL


@PROPERTIES
@given(instances())
def test_symmetric(instance):
    a, b, d = instance
    assert abs(ot_cost(a, b, d) - ot_cost(b, a, d)) <= ROUNDING_TOL


@PROPERTIES
@given(instances(), st.integers(0, 10**7))
def test_price_shift_invariant(instance, shift):
    a, b, d = instance
    moved = [PricePMF(p.support + shift, p.mass, p.n) for p in (a, b)]
    assert ot_cost(*moved, d) == ot_cost(a, b, d)


@PROPERTIES
@given(instances())
def test_free_beyond_span(instance):
    a, b, _ = instance
    span = max(a.support[-1], b.support[-1]) - min(a.support[0], b.support[0])
    assert ot_cost(a, b, int(span)) == 0.0
    assert ot_cost_batch([a], [b], [int(span), int(span) + 1]).tolist() == [[0.0, 0.0]]


@PROPERTIES
@given(support_pairs(), supports, st.booleans())
def test_mismatched_supports_rejected(pair, other, on_source):
    src, tgt = pair
    side = src if on_source else tgt
    if other == side:
        other = [x + 1 for x in side]
    pres = [PricePMF.from_counts(src, np.ones(len(src), dtype=int))] * 2
    posts = [PricePMF.from_counts(tgt, np.ones(len(tgt), dtype=int))] * 2
    odd = PricePMF.from_counts(other, np.ones(len(other), dtype=int))
    if on_source:
        pres[1] = odd
    else:
        posts[1] = odd
    with pytest.raises(ValidationError):
        ot_cost_batch(pres, posts, [0])


def test_batch_rejects_bad_shapes_and_bandwidths():
    p = PricePMF.from_counts([1, 2], [1, 1])
    with pytest.raises(ValidationError):
        ot_cost_batch([p, p], [p], [0])
    with pytest.raises(ValidationError):
        ot_cost_batch([], [], [0])
    for bad in (-1, 0.5, True):
        with pytest.raises(ValidationError):
            ot_cost_batch([p], [p], [0, bad])
