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
