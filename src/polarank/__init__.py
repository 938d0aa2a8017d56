"""polarank: exact p-ranks of point-flat incidence in symplectic polar spaces.

Three independent pillars, cross-validated against each other:

* a geometry oracle: build W(2m-1, q), assemble the 0/1 incidence matrices,
  and take their exact GF(p) rank as a sum over the weight spaces of the
  diagonal torus (`geometry`, `incidence`, `torus`), with a dense
  row-reduction of the whole matrix as the independent check (`ranks`);
* a formula engine: digit-type posets, signed ideals, dimension tables, and
  the transfer-matrix / recurrence closed forms (`posets`, `dimensions`);
* a function-space laboratory on k[V] that machine-checks the operator
  identities the formulas rest on (`funcspace`).

The names below are re-exported from their submodules and load on first
use (PEP 562): `import polarank` imports no submodule, and numpy loads only
with the first name from a module that needs it, so the formula engine
(`posets`, `dimensions`) runs without numpy.
"""

import importlib

# submodule -> the public names it contributes to the package surface
_EXPORTS = {
    "gf": ("FieldSpec", "binom_mod_p", "build_field"),
    "geometry": (
        "SymplecticSpace",
        "enumerate_all_subspaces",
        "enumerate_coisotropic",
        "enumerate_isotropic",
        "enumerate_points",
        "gaussian_binomial",
        "isotropic_count",
        "perp",
        "point_count",
    ),
    "incidence": (
        "SparseIncidenceMatrix",
        "build_incidence",
        "incidence_from_flats",
        "read_matrix",
        "write_matrix",
        "write_matrix_market",
    ),
    "ranks": ("DenseRowPacked", "rank_mod_p"),
    "posets": (
        "HType",
        "LambdaType",
        "SignedHType",
        "enumerate_H",
        "enumerate_H_d",
        "enumerate_S",
        "h_type_from_lambda",
        "ideal_below",
        "lambda_from_h_type",
        "signed_ideal_below",
        "signed_leq",
        "type_of",
    ),
    "dimensions": (
        "DimensionTable",
        "DMatrix",
        "build_D_matrix",
        "dim_L_signed",
        "dim_S_lambda",
        "dim_S_plus_minus",
        "dim_Y_signed",
        "dim_Y_unsigned",
        "dimension_table",
        "rank_W3_char2",
        "rank_W3_closed_form",
        "rank_point_flat",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
