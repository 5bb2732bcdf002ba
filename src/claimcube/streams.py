"""Reproducible random streams and the Gamma severity parameterization.

Every Monte Carlo replicate owns one :class:`RandomStream`, addressed by
``(master_seed, stream_id)``.  Identical pairs replay the identical draw
sequence bit for bit; distinct stream ids give statistically independent
substreams.  Derivation goes through :class:`numpy.random.SeedSequence`,
which mixes the pair with a fixed hash, so replicate ``r`` is reproducible
regardless of execution order or worker placement.

The simulator draws straight from :attr:`RandomStream.generator`.  Retained
individual payment amounts come from :attr:`RandomStream.severity_generator`,
a second generator derived from the same pair (``spawn_key=(0,)``) and built
only when it is first used, so retaining them never changes the draws of
:attr:`RandomStream.generator`.
Severities are parameterized by (mean, variance); :func:`gamma_shape_scale`
converts them to the Gamma shape and scale.  A zero variance is a point mass
at the mean, which the simulator handles without a draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = ["RandomStream", "gamma_shape_scale"]

#: Tolerance on probability-vector normalization.
PROB_TOL = 1e-9

_UINT64_MAX = 2**64 - 1


@dataclass(eq=False)
class RandomStream:
    """One substream of a master-seeded random source.

    A stream is single-consumer: draws advance its internal state.  Distinct
    streams may be consumed concurrently from different workers; they share
    no mutable state.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)
    _severity_gen: np.random.Generator | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not (0 <= int(value) <= _UINT64_MAX):
                raise ParameterError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        seq = np.random.SeedSequence([int(self.master_seed), int(self.stream_id)])
        self._gen = np.random.default_rng(seq)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (PCG64)."""
        return self._gen

    @property
    def severity_generator(self) -> np.random.Generator:
        """A second generator of the same pair, for retained individual amounts.

        Derived with ``spawn_key=(0,)``, so its draws are independent of
        :attr:`generator` and never advance it.
        """
        if self._severity_gen is None:
            seq = np.random.SeedSequence([int(self.master_seed), int(self.stream_id)], spawn_key=(0,))
            self._severity_gen = np.random.default_rng(seq)
        return self._severity_gen


def gamma_shape_scale(mean, variance):
    """Map a (mean, variance) severity parameterization to Gamma (shape, scale).

    shape = mean^2 / variance, scale = variance / mean, for floats or
    elementwise on arrays.  Only valid for variance > 0; callers handle the
    degenerate point mass themselves.
    """
    return mean * mean / variance, variance / mean
