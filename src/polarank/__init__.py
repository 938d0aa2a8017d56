"""polarank: exact p-ranks of point-flat incidence in symplectic polar spaces.

Three independent pillars, cross-validated against each other:

* a geometry oracle: build W(2m-1, q), assemble the 0/1 incidence matrices,
  and row-reduce them over GF(p) exactly (`geometry`, `incidence`, `ranks`);
* a formula engine: digit-type posets, signed ideals, dimension tables, and
  the transfer-matrix / recurrence closed forms (`posets`, `dimensions`);
* a function-space laboratory on k[V] that machine-checks the operator
  identities the formulas rest on (`funcspace`).
"""

from .gf import FieldSpec, binom_mod_p, build_field
from .geometry import (
    SymplecticSpace,
    enumerate_all_subspaces,
    enumerate_coisotropic,
    enumerate_isotropic,
    enumerate_points,
    gaussian_binomial,
    isotropic_count,
    perp,
    point_count,
)
from .incidence import (
    SparseIncidenceMatrix,
    build_incidence,
    incidence_from_flats,
    read_matrix,
    write_matrix,
    write_matrix_market,
)
from .ranks import DenseRowPacked, rank_mod_p
from .posets import (
    HType,
    LambdaType,
    SignedHType,
    enumerate_H,
    enumerate_H_d,
    enumerate_S,
    h_type_from_lambda,
    ideal_below,
    lambda_from_h_type,
    signed_ideal_below,
    signed_leq,
    type_of,
)
from .dimensions import (
    DimensionTable,
    DMatrix,
    build_D_matrix,
    dim_L_signed,
    dim_S_lambda,
    dim_S_plus_minus,
    dim_Y_signed,
    dim_Y_unsigned,
    dimension_table,
    rank_W3_char2,
    rank_W3_closed_form,
    rank_point_flat,
)

__version__ = "0.1.0"
