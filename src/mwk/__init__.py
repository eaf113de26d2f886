"""Exact symbolic Milnor-Witt K-theory over small fields.

The commonly used names are re-exported here; see the module docstrings
for the full surfaces.
"""

from .fields import (
    FFUnit,
    FiniteField,
    Place,
    Poly,
    RatFuncField,
    RatFuncUnit,
    ff_build,
    ff_build_q,
    poly_factor,
    rat_func_field,
    residue_field,
    unit_normalize,
)
from .model import (
    MILNOR,
    MOD2,
    MW,
    WITT,
    MWElem,
    base_change,
    eval_model,
    group_structure_model,
    smith_normal_form,
    snf_oracle,
    theory_torsion_test,
)
from .operations import (
    ModelOracle,
    OpSequence,
    ValuationOracle,
    admissible,
    divided_power_series,
    f_eval,
    lambda_eval,
    oracle_for,
    sigma_eval,
)
from .symbols import SymExpr, power_symbol, relation_generators, rewrite_mw2
from .valuation import CanonicalForm, canonical_form, equal, is_zero, residue, specialize

__version__ = "0.1.0"
