"""Exact-rational classification of the essential tempered components of a
connected linear real reductive group, from its compact-torus weight data:
generating dominant weights, minimal K-types, R-group orders, Dirac
highest weights, and the inverse matching."""

from .classify import (
    ClassificationRun,
    EssentialVoganDatum,
    construct_from_kappa,
    enumerate_ball,
    enumerate_components,
    genuine_shift,
    is_genuine,
)
from .errors import TemperedAtlasError
from .groups import (
    RealFormDescriptor,
    ValidationReport,
    catalog,
    catalog_names,
    is_integral,
    lattice_coordinates,
    validate,
)
from .krep import (
    dirac_multiplicity,
    freudenthal,
    spin_weights,
    tensor_decompose,
    weyl_dim,
)
from .matching import (
    ComponentSummary,
    dirac_highest_weight,
    fine_weights,
    match_inverse,
    minimal_k_types,
    r_group_order,
    summarize,
    summarize_datum,
)
from .parabolic import ThetaParabolic, build_parabolic
from .weights import BilinearForm, Weight, half_sum, parse_weight

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "ClassificationRun",
    "ComponentSummary",
    "EssentialVoganDatum",
    "RealFormDescriptor",
    "TemperedAtlasError",
    "ThetaParabolic",
    "ValidationReport",
    "Weight",
    "build_parabolic",
    "catalog",
    "catalog_names",
    "construct_from_kappa",
    "dirac_highest_weight",
    "dirac_multiplicity",
    "enumerate_ball",
    "enumerate_components",
    "fine_weights",
    "freudenthal",
    "genuine_shift",
    "half_sum",
    "is_genuine",
    "is_integral",
    "lattice_coordinates",
    "load_descriptor",
    "loads_descriptor",
    "match_inverse",
    "minimal_k_types",
    "parse_weight",
    "r_group_order",
    "serialize_descriptor",
    "spin_weights",
    "summarize",
    "summarize_datum",
    "tensor_decompose",
    "validate",
    "weyl_dim",
]


def __getattr__(name):
    # PEP 562: the descriptor file format is compiled on first use.
    if name not in ("load_descriptor", "loads_descriptor", "serialize_descriptor"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import descriptor_file

    return getattr(descriptor_file, name)
