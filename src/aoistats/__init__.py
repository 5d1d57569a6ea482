"""Age-of-information statistics for a multi-source preemptive server.

Closed forms for the stationary age process of each source sharing a
single bufferless server with pushout, a vectorized event simulator
with batch-means error bars, and sweep/comparison drivers.

A name is public at the package root exactly when it is public in its
module: the root re-exports each library module's `__all__`, in the order
below.  `simulator.run_replications` is the one addition; its module
leaves it out of `__all__` so that the benchmark tracer, which wraps what
it finds there, wraps it only once, on its own.  The command line
(`aoistats.cli`) is not imported here, so `import aoistats` does not load
argparse.
"""

from . import analytics, config, experiments, servicedist, simulator
from .servicedist import *
from .analytics import *
from .simulator import *
from .simulator import run_replications
from .experiments import *
from .config import *

__version__ = "0.1.0"

__all__ = [
    *servicedist.__all__,
    *analytics.__all__,
    *simulator.__all__,
    *experiments.__all__,
    *config.__all__,
    "run_replications",
]
