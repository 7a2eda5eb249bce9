"""``scm._draw_noise`` fills each run of one noise family in one numpy call; it
must equal ``tests/oracles.py::draw_noise_per_variable``, one ``normal`` or
``uniform`` call per variable, bit for bit and in stream position.

The specs come from small pools, so neighbours often share a family and
runs of every length and interleaving occur; zero-sd gaussians, zero-width
uniforms and signed zeros are included because they can differ in the sign
of a zero draw. ``scm._draw_standard`` must take the same stream, and the
SCM's (loc, scale) must rebuild every row from it bit for bit. The spans of
``scm._row_blocks``, the one order of that stream, must split each run into
whole rows as documented, at any number of rows a span.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsteer import Dag, NoiseSpec, Scm
from causalsteer.scm import _draw_noise, _draw_standard, _row_blocks

from .oracles import draw_noise_per_variable

VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.25])

SPECS = st.one_of(
    st.builds(NoiseSpec.gaussian, VALUES, st.sampled_from([0.0, 1.5])),
    st.tuples(VALUES, VALUES)
    .filter(lambda ends: math.copysign(1.0, ends[1] - ends[0]) > 0)
    .map(lambda ends: NoiseSpec.uniform(*ends)),
    st.builds(NoiseSpec.constant, VALUES),
)


@st.composite
def noise_sequences(draw):
    """A list of specs built from (spec, repeat) pairs: runs of length 1 to 3, in any interleaving."""
    runs = draw(st.lists(st.tuples(SPECS, st.integers(1, 3)), min_size=1, max_size=6))
    return [spec for spec, repeat in runs for _ in range(repeat)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(noise_sequences(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_run_fills_equal_per_variable_draws(noises, m, seed):
    scm = Scm(Dag(np.zeros((len(noises), len(noises)))), tuple(noises))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = _draw_noise(scm, rng, np.empty((scm.n, m)))
    assert drawn.tobytes() == draw_noise_per_variable(scm, reference_rng, m).tobytes()
    # The generator has taken exactly the draws the reference took.
    assert rng.random() == reference_rng.random()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(noise_sequences(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_standard_draws_rebuild_the_noise(noises, m, seed):
    """``_draw_standard`` takes ``_draw_noise``'s stream; loc + scale * u gives its bits back, signed zeros included."""
    scm = Scm(Dag(np.zeros((len(noises), len(noises)))), tuple(noises))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    u = _draw_standard(scm, rng, np.empty((scm.n, m)))
    drawn = _draw_noise(scm, reference_rng, np.empty((scm.n, m)))
    assert rng.random() == reference_rng.random()
    loc, scale = scm.loc_scale
    for k in range(len(noises)):
        assert (loc[k] + scale[k] * u[k]).tobytes() == drawn[k].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(noise_sequences(), st.data())
def test_row_blocks_split_each_run_into_spans_of_whole_rows(noises, data):
    n = len(noises)
    rows = data.draw(st.integers(1, n + 1))
    spans = list(_row_blocks(Scm(Dag(np.zeros((n, n))), tuple(noises)), rows))
    # The runs, found here by comparing each spec's family with its predecessor's.
    starts = [k for k in range(n) if k == 0 or noises[k].family != noises[k - 1].family]
    ends = [*starts[1:], n]
    # The spans tile 0..n in index order.
    assert [b0 for b0, _, _ in spans] == [0, *(b1 for _, b1, _ in spans[:-1])]
    assert spans[-1][1] == n
    # A span ends at every family change.
    assert set(ends) <= {b1 for _, b1, _ in spans}
    for b0, b1, spec in spans:
        run = max(k for k in starts if k <= b0)
        # At most ``rows`` variables of one family, the first spec of its run.
        assert 1 <= b1 - b0 <= rows
        assert {s.family for s in noises[b0:b1]} == {noises[run].family}
        assert spec is noises[run]
        # Every span of a run but its last holds exactly ``rows`` variables.
        assert b1 == ends[starts.index(run)] or b1 - b0 == rows
