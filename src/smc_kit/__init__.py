"""Computations with simple-minded collections in bounded homotopy
categories of projectives over finite-dimensional quiver algebras:
recollements from idempotents, gluing, mutation, and the partial order."""

from .algebra import Algebra, Module, Quiver, global_dimension
from .config import BoundExceeded, InputError, Limits, NotRigidError, SmcKitError
from .exactla import Mat, PrimeField, RationalField, get_field
from .recollement import RecollementSpec, build_recollement
from .smc import SMC, compare, glue, glue_dual, mutate, smc_iso, standard_smc, validate_smc

__version__ = "0.1.0"
