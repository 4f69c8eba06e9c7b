"""Probabilistic angle interpolation for discretized quantum rotations.

Rotation gates whose angles are restricted to a finite grid ("notches",
e.g. the values representable in a B-bit angle register) cannot realize an
arbitrary target angle.  This package decomposes the target rotation
channel into a signed mixture of three realizable channels, samples
circuit variants from the mixture and reweights measurement outcomes so
that expectation-value estimates stay unbiased, at a quantifiable sampling
overhead.  It also provides the discretized-hardware baselines (nearest
rounding, sign-free two-notch interpolation), a spin-ring benchmark model
with Trotterized evolution and a variational ground-state loop, and a CLI
for the standard experiments.
"""

from . import estimate, models, notch, quasiprob, rng, statevector
from .estimate import *  # noqa: F403
from .models import *  # noqa: F403
from .notch import *  # noqa: F403
from .quasiprob import *  # noqa: F403
from .rng import *  # noqa: F403
from .statevector import *  # noqa: F403

__version__ = "0.11.0"

# each public name is declared once, in its module's __all__
__all__ = [
    "__version__",
    *statevector.__all__,
    *notch.__all__,
    *quasiprob.__all__,
    *rng.__all__,
    *estimate.__all__,
    *models.__all__,
]
