"""Public entry points raise their MWKError on bad input: one case per
raise that the other tests do not reach."""

import random

import pytest

from mwk.errors import (
    DegreeBound,
    DegreeMismatch,
    FieldMismatch,
    Inhomogeneous,
    NotRegularAtPlace,
    PlaceMismatch,
    SizeBound,
    ZeroPolynomial,
)
from mwk.fields import Place, Poly, ff_build, ff_build_q, rat_func_field
from mwk.model import MW, MWElem, eval_model, group_structure_model
from mwk.operations import OpSequence, oracle_for
from mwk.symbols import SymExpr, embed_expr, eta_reduce, relation_generators, unit_sampler
from mwk.valuation import ValuationContext, canonical_form, valuation_context

F3, F5, F9 = ff_build(3), ff_build(5), ff_build(3, 2)
RF3, RF5 = rat_func_field(F3), rat_func_field(F5)
T_PLACE = Place(RF3, RF3.var_poly())
T3, T5 = SymExpr.bracket(RF3.t_unit()), SymExpr.bracket(RF5.t_unit())
RNG = random.Random(0)


def lowered_bound(monkeypatch):
    monkeypatch.setenv("MWK_SIZE_BOUND", "2")
    return group_structure_model(F3, 1)


CASES = {
    "ffunit-mul": (FieldMismatch, lambda mp: F3.unit(2).mul(F5.unit(2))),
    "ratfuncunit-mul": (FieldMismatch, lambda mp: RF3.t_unit().mul(RF5.t_unit())),
    "constant": (FieldMismatch, lambda mp: RF3.constant(F5.unit(2))),
    "canonical-form-fq": (FieldMismatch, lambda mp: canonical_form(SymExpr.bracket(F3.unit(2)), 1)),
    "eval-model-ft": (FieldMismatch, lambda mp: eval_model(T3, 1)),
    "oracle-for": (FieldMismatch, lambda mp: oracle_for(object())),
    "opsequence-field": (FieldMismatch, lambda mp: OpSequence(MW, MW, 1, 0, F3, [MWElem.one(F9)])),
    "embedding": (FieldMismatch, lambda mp: F9.embedding(F5)),
    "residue-field-embedding": (
        FieldMismatch,
        lambda mp: Place(RF3, Poly(F3, (1, 0, 1))).residue_data().kappa.embedding(F9),
    ),
    "embed-ft-ft": (FieldMismatch, lambda mp: embed_expr(T3, RF5)),
    "embed-ft-fq": (FieldMismatch, lambda mp: embed_expr(T3, F3)),
    "residue-foreign": (FieldMismatch, lambda mp: valuation_context(T_PLACE).residue(T5)),
    "specialize-foreign": (FieldMismatch, lambda mp: valuation_context(T_PLACE).specialize(T5)),
    "from-poly-zero": (ZeroPolynomial, lambda mp: RF3.from_poly(Poly(F3, ()))),
    "foreign-uniformizer": (PlaceMismatch, lambda mp: ValuationContext(T_PLACE, RF5.t_unit())),
    "milnor-zero": (DegreeMismatch, lambda mp: MWElem(F3, 1, 0, (0, 0))),
    "witt-class-degree-0": (DegreeMismatch, lambda mp: MWElem.witt_class(F3, 0, (0, 0))),
    "constant-place": (NotRegularAtPlace, lambda mp: Place(RF3, Poly(F3, (1,)))),
    "relations-negative-degree": (
        DegreeBound,
        lambda mp: next(relation_generators(F3, -1, 0, RNG, 1, unit_sampler(F3, RNG))),
    ),
    "eta-reduce-degree-0": (
        Inhomogeneous,
        lambda mp: eta_reduce(SymExpr.bracket(F3.unit(2)).eta_mul()),
    ),
    "ff-build-q": (SizeBound, lambda mp: ff_build_q(10007**2)),
    "group-model-lowered-bound": (SizeBound, lowered_bound),
}


@pytest.mark.parametrize("error,call", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_error(error, call, monkeypatch):
    with pytest.raises(error):
        call(monkeypatch)
