"""Reproducible random streams and the Gamma severity parameterization.

Every block of Monte Carlo replicates owns one :class:`RandomStream`,
addressed by ``(master_seed, stream_id)`` with the block number as stream id.
A stream holds one generator per stage of the world kernel (Poisson counts
per last active year, payment-count binomial, cell-total Gamma), the
generator of stage ``s`` derived from
``SeedSequence([master_seed, stream_id], spawn_key=(s,))``.  Identical pairs
replay the identical draws bit for bit; distinct stream ids give
statistically independent substreams.  :class:`numpy.random.SeedSequence`
mixes the pair with a fixed hash, so a block is reproducible regardless of
execution order or worker placement.

Because every stage has its own generator and numpy consumes a vectorised
call element by element in C order, the first ``n`` worlds of a block are
the same whether the block is drawn with ``n`` worlds or more.

Retained individual payment amounts replay from
:meth:`RandomStream.severity_state`, the state of a further generator of the
same pair (spawn key ``SEVERITY``), so retaining them never changes a
stage's draws.  Severities are parameterized by (mean,
variance); :func:`gamma_shape_scale` converts them to the Gamma shape and
scale.  A zero variance is a point mass at the mean, which the simulator
handles without a draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _require_integer

__all__ = ["RandomStream", "gamma_shape_scale"]

#: Spawn keys of a stream's generators: the kernel's three stages, in the order
#: a world is drawn, then the retained severities.
POISSON, BINOMIAL, GAMMA, SEVERITY = range(4)

#: Tolerance on probability-vector normalization.
PROB_TOL = 1e-9


#: Largest master seed or stream id: a seed is an unsigned 64-bit integer.
MAX_SEED = 2**64 - 1


@dataclass(eq=False)
class RandomStream:
    """One substream of a master-seeded random source: a generator per stage.

    A stream is single-consumer: draws advance its generators' states, and
    each retained world advances its severity state.  Distinct streams may be
    consumed concurrently from different workers; they share no mutable
    state.
    """

    master_seed: int
    stream_id: int = 0
    _gens: tuple = field(init=False, repr=False)
    _retained_worlds: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            _require_integer(name, getattr(self, name), 0, MAX_SEED)
        self._gens = tuple(self._spawn(stage) for stage in (POISSON, BINOMIAL, GAMMA))

    def _spawn(self, key: int) -> np.random.Generator:
        seq = np.random.SeedSequence([int(self.master_seed), int(self.stream_id)], spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seq))

    @property
    def generators(self) -> tuple[np.random.Generator, ...]:
        """The three stage generators (PCG64), indexed by ``POISSON``, ``BINOMIAL``, ``GAMMA``."""
        return self._gens

    def severity_state(self, worlds: int = 1) -> dict:
        """The PCG64 state from which the last of ``worlds`` retained worlds replays its amounts.

        The generator of spawn key ``SEVERITY``, independent of the stage
        generators, jumped (:meth:`numpy.random.PCG64.jumped`) once per world
        the stream retained before: world ``b`` of a stream's first block
        replays from jump ``b``, and no two worlds of one stream share draws.
        """
        _require_integer("worlds", worlds, 1)
        state = self._spawn(SEVERITY).bit_generator.jumped(self._retained_worlds + worlds - 1).state
        self._retained_worlds += worlds
        return state


def gamma_shape_scale(mean, variance):
    """Map a (mean, variance) severity parameterization to Gamma (shape, scale).

    shape = mean^2 / variance, scale = variance / mean, for floats or
    elementwise on arrays.  Only valid for variance > 0; callers handle the
    degenerate point mass themselves.
    """
    return mean * mean / variance, variance / mean
