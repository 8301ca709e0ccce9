"""Executable factorization theory over finite commutative rings."""

__version__ = "0.1.0"

from .rings import FiniteRing, make_polyquot, make_product, make_zn, quotient_ring
from .modules import FiniteModule, make_free, make_self_module, quotient_module
from .idealization import idealize

__all__ = [
    "FiniteRing",
    "FiniteModule",
    "idealize",
    "make_free",
    "make_polyquot",
    "make_product",
    "make_self_module",
    "make_zn",
    "quotient_module",
    "quotient_ring",
    "__version__",
]
