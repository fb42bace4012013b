"""SO(2)-coined quantum walk on the integer line.

Exact state-vector simulation, closed-form displacement distributions
built from a Chebyshev polynomial family, and maximum-likelihood
estimation of the coin angle from sampled walk data.
"""

from . import chebyshev, estimation, pmf, sampling, walk
from .chebyshev import *
from .estimation import *
from .pmf import *
from .sampling import *
from .walk import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of the module defining it
__all__ = sorted(name for module in (chebyshev, estimation, pmf, sampling, walk)
                 for name in module.__all__)
