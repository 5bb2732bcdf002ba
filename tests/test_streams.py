import math

import numpy as np
import pytest

from claimcube import ParameterError, RandomStream, gamma_shape_scale
from claimcube.streams import POISSON


def draw_sequence(stream):
    gen = stream.generators[POISSON]
    return [
        int(gen.poisson(5.0)),
        int(gen.binomial(20, 0.3)),
        float(gen.gamma(*gamma_shape_scale(4.0, 16.0))),
        gen.multinomial(100, [0.5, 0.5]).tolist(),
    ]


def test_identical_streams_replay_identical_sequences():
    assert draw_sequence(RandomStream(123, 7)) == draw_sequence(RandomStream(123, 7))


def test_distinct_stream_ids_differ():
    draws = {tuple(RandomStream(123, sid).generators[POISSON].integers(0, 2**32, 4)) for sid in range(8)}
    assert len(draws) == 8


def test_stream_rejects_out_of_range_ids():
    with pytest.raises(ParameterError):
        RandomStream(-1, 0)
    with pytest.raises(ParameterError):
        RandomStream(0, 2**64)


def test_severity_state_of_a_draw_is_that_of_its_last_world():
    one_by_one = RandomStream(5, 1)
    states = [one_by_one.severity_state() for _ in range(5)]
    stream = RandomStream(5, 1)
    assert [stream.severity_state(3), stream.severity_state(2)] == [states[2], states[4]]
    with pytest.raises(ParameterError, match="worlds must be an integer >= 1, got 0"):
        stream.severity_state(0)


def test_poisson_moments_match_law_of_large_numbers():
    # oracle: sample mean of n draws lies within 3*sqrt(mean/n) of the mean,
    # sample variance within 5*sqrt(2*mean^2/n) (Poisson variance = mean)
    stream = RandomStream(2024)
    n, mean = 100_000, 150.0
    draws = stream.generators[POISSON].poisson(mean, size=n)
    assert abs(draws.mean() - mean) < 3 * math.sqrt(mean / n)
    assert abs(draws.var(ddof=1) - mean) < 5 * math.sqrt(2 * mean**2 / n)


def test_gamma_shape_scale_algebra():
    assert gamma_shape_scale(10.0, 40.0) == (2.5, 4.0)


@pytest.mark.parametrize("mean,var", [(1.0, 1.0), (4.0, 16.0), (100.0, 400.0)])
def test_gamma_mean_variance_round_trip(mean, var):
    # 4 CLT standard errors at one million draws; the variance band uses the
    # Gamma fourth moment, mu4 = var^2 * (3 + 6/shape)
    shape, scale = gamma_shape_scale(mean, var)
    n = 1_000_000
    draws = RandomStream(13).generators[POISSON].gamma(shape, scale, size=n)
    assert abs(draws.mean() - mean) < 4 * math.sqrt(var / n)
    se_var = var * math.sqrt((2 + 6 / shape) / n)
    assert abs(draws.var(ddof=1) - var) < 4 * se_var
    assert np.all(draws > 0)


# --- the numpy facts the payment draw rests on ------------------------------------
# The kernel draws a block's cell totals as scale * standard_gamma(nu * shape)
# over every cell, in place, with shape 0 where a cell draws nothing.  Its
# bytes equal one gamma(nu * shape, scale) call over the drawing cells alone
# only while these hold; the golden table checks bytes on its own numpy
# fingerprints only.

SHAPES = [1e-6, 0.5, 1.0, 3.0, 1e3]


def twin_generators(seed=20261022):
    return [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]


def test_standard_gamma_draws_nothing_for_a_zero_shape():
    shapes = np.array([0.0, 0.5, 0.0, 0.0, 3.0, 1e-6, 0.0, 1.0, 1e3, 0.0] * 50)
    with_zeros, alone = twin_generators()
    drawn = with_zeros.standard_gamma(shapes)
    expected = alone.standard_gamma(shapes[shapes > 0])
    zero = shapes == 0
    assert np.all(drawn[zero] == 0.0) and not np.signbit(drawn[zero]).any()
    assert drawn[~zero].tobytes() == expected.tobytes()
    assert with_zeros.bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize("shape", SHAPES)
def test_gamma_is_scale_times_standard_gamma(shape):
    scales = np.geomspace(1e-3, 1e6, 500)
    scaled, standard = twin_generators()
    assert scaled.gamma(shape, scales).tobytes() == (scales * standard.standard_gamma(np.full(500, shape))).tobytes()
    assert scaled.bit_generator.state == standard.bit_generator.state


def test_standard_gamma_in_place_equals_out_of_place():
    shapes = np.repeat(np.array(SHAPES + [0.0]), 100)
    in_place, out_of_place = twin_generators()
    drawn = shapes.copy()
    in_place.standard_gamma(drawn, out=drawn)
    assert drawn.tobytes() == out_of_place.standard_gamma(shapes).tobytes()
    assert in_place.bit_generator.state == out_of_place.bit_generator.state
