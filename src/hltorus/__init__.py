"""Exact verification of Hall-Littlewood torus-integral identities.

The package evaluates Hall-Littlewood polynomials at signed-monomial
argument lists, assembles the q=0 Selberg/Koornwinder-type densities, and
checks closed-form values of normalized torus integrals by constant-term
extraction in an exact truncated parameter ring.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    HLTorusError,
    ResourceLimitError,
)
from .series import ParamSeries, SeriesRing
from .laurent import LaurentPoly
from .partitions import DominantWeight, Partition, classify_shape
from .hall_littlewood import (
    Mono,
    const_arg,
    hl_full,
    pm_args,
    var_arg,
)
from .densities import (
    DensityProduct,
    ct_integrate,
    koornwinder_density,
    selberg_density,
)
from .pfaffian import (
    AntisymMatrix,
    build_a_matrix,
    build_m_minus,
    build_m_plus,
    pfaffian,
)
from .identities import (
    REGISTRY,
    VerificationReport,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymMatrix",
    "ConfigurationError",
    "DensityProduct",
    "DominantWeight",
    "DomainError",
    "HLTorusError",
    "LaurentPoly",
    "Mono",
    "ParamSeries",
    "Partition",
    "REGISTRY",
    "ResourceLimitError",
    "SeriesRing",
    "VerificationReport",
    "build_a_matrix",
    "build_m_minus",
    "build_m_plus",
    "classify_shape",
    "const_arg",
    "ct_integrate",
    "hl_full",
    "koornwinder_density",
    "pfaffian",
    "pm_args",
    "selberg_density",
    "var_arg",
    "verify",
]
