"""Monte Carlo claim reserving on a three-axis claim model.

Claims are tracked by occurrence year, reporting lag and run-off year.  The
package simulates whole claim worlds (Poisson counts per occurrence year,
lag and last active year, compound Gamma payments),
projects them to classical 2-D run-off triangles, evaluates reserve
distributions with risk measures, provides closed-form reserve moments, a
Chain-Ladder baseline and moment-based calibration.
"""

# Each library module's __all__ declares its part of the package API; the
# command-line module, cli, is not imported.
from . import aggregate, calibrate, chainladder, config, engine, errors, model, presets, streams
from .aggregate import *
from .calibrate import *
from .chainladder import *
from .config import *
from .engine import *
from .errors import *
from .model import *
from .presets import *
from .streams import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (aggregate, calibrate, chainladder, config, engine, errors, model, presets, streams)
    for name in module.__all__
]
