"""Exact combinatorics of affine Weyl chambers: root data, alcove
vertex enumeration, wall and edge-path metrics, concave-function
filtration indices, and polynomial cardinality bounds in a formal q.
"""

from . import apartment, cartan, distance, errors, growth, moyprasad, qpoly
from .apartment import *
from .cartan import *
from .distance import *
from .errors import *
from .growth import *
from .moyprasad import *
from .qpoly import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += apartment.__all__
__all__ += cartan.__all__
__all__ += distance.__all__
__all__ += errors.__all__
__all__ += growth.__all__
__all__ += moyprasad.__all__
__all__ += qpoly.__all__
