"""Bounded complexes of projectives, homotopy classes of maps, cones,
minimal representatives, and hyperprojective resolution of module complexes."""

from .complexes import (
    ChainMap,
    ProjComplex,
    cocone,
    cone,
    compose,
    direct_sum,
    identity_map,
    is_contractible,
    minimalize,
    shift,
    zero_complex,
)
from .homs import (
    HomTable,
    IsoResult,
    chain_maps_basis,
    factor_through,
    hom_basis,
    hom_dims,
    hom_table,
    hom_window,
    homotopic,
    is_iso,
    is_nullhomotopic,
    lift_through,
)
from .resolve import (
    ModComplex,
    cohomology_dims,
    corner_of_proj_complex,
    dual_mod_complex,
    module_realization,
    resolve_complex,
    resolve_module,
    stalk_complex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
