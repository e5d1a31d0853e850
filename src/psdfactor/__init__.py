"""psdfactor: certificates for products of nonnegative selfadjoint operators.

Subpackages by layer: :mod:`psdfactor.numkernel` (dense real and complex kernel),
:mod:`psdfactor.linrel` (finite-dimensional linear relations),
:mod:`psdfactor.factor` (the theorem engines), :mod:`psdfactor.diagmodel`
(unbounded diagonal symbols), and :mod:`psdfactor.cli` (JSON batch front-end).
"""

__version__ = "0.1.0"

from . import diagmodel, factor, linrel, numkernel  # noqa: F401
from .factor import (  # noqa: F401
    ReverseCertificate,
    SebCertificate,
    WSimilarForms,
    douglas_solve,
    ldeux_certify,
    power_chain,
    presimilar_S,
    psd_similarity_decide,
    quasiaffine_decide,
    quasisimilar_decide,
    reverse_solve,
    seb_relation_solve,
    seb_solve,
    spectra_swap_check,
    wsimilar_forms,
)
from .linrel import LinRel, rel_from_graph, rel_from_matrix  # noqa: F401
from .diagmodel import DiagRel, DiagSymbol  # noqa: F401
