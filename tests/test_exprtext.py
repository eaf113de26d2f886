import random

import pytest

from mwk.errors import ParseError
from mwk.exprtext import (
    format_expr,
    format_field_spec,
    format_poly,
    format_rat_unit,
    parse_expr,
    parse_field_spec,
    parse_unit,
)
from mwk.cli import main
from mwk.fields import Poly, ff_build, ff_build_q, rat_func_field
from mwk.model import eval_model
from mwk.symbols import SymExpr
from mwk.valuation import is_zero

F3 = ff_build(3, 1)
F5 = ff_build(5, 1)
F9 = ff_build(3, 2)
RF3 = rat_func_field(F3)
RF5 = rat_func_field(F5)


def test_documented_examples():
    e = parse_expr("eta^2*[2, t+1, 3] + 5*[2]", RF5)
    assert parse_expr(format_expr(e), RF5) == e
    u = parse_unit("2*(t+1)^-1*(t^2+1)^3", RF3)
    assert format_rat_unit(u) == "2*(t+1)^-1*(t^2+1)^3"
    assert parse_unit(format_rat_unit(u), RF3) == u


def test_eval_cli_examples():
    assert eval_model(parse_expr("[2]*[2]", F3), 2).is_zero()
    assert is_zero(parse_expr("[t,t] - [t,-1]", RF3), 2)
    assert eval_model(parse_expr("eta*(2 + eta*[-1])", F3), -1).is_zero()


def test_roundtrip_random_exprs():
    rng = random.Random(0)
    for field in (F3, F5, F9, RF3):
        for _ in range(60):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(0, 3)
                r = rng.randrange(0, 3)
                if field is RF3:
                    units = []
                    for _ in range(r):
                        while True:
                            f = Poly.make(
                                F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
                            )
                            if not f.is_zero():
                                break
                        u = RF3.from_poly(f)
                        if rng.random() < 0.4:
                            u = u.inv()
                        units.append(u)
                    units = tuple(units)
                else:
                    units = tuple(
                        field.unit_exp(rng.randrange(field.q - 1)) for _ in range(r)
                    )
                terms[(d, units)] = rng.randrange(-5, 6)
            from mwk.symbols import SymExpr

            e = SymExpr(field, terms)
            text = format_expr(e)
            assert parse_expr(text, field) == e, text
            # printing is stable
            assert format_expr(parse_expr(text, field)) == text


def test_unit_atoms_are_factored_one_by_one():
    # degree 13 in all, but each atom is within the factorization cap
    assert main(["eval", "[(t^7+t+1)*(t^6+t+1), t]", "--field", "5(t)"]) == 0
    rng = random.Random(5)
    for q in (5, 9):
        rf = rat_func_field(ff_build_q(q))
        for _ in range(25):
            atoms = []
            budget = rng.randint(2, 12)
            for k in range(rng.randint(2, 3)):
                deg = rng.randint(0 if k else 1, min(4, budget))
                e = rng.randint(1, 2) if 2 * deg <= budget else 1
                budget -= e * deg
                coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
                atoms.append((Poly.make(rf.base, coeffs), e))
            expanded = Poly.const(rf.base, 1)
            for p, e in atoms:
                for _ in range(e):
                    expanded = expanded.mul(p)
            text = "*".join(
                f"({format_poly(p)})" + (f"^{e}" if e > 1 else "") for p, e in atoms
            )
            u = parse_unit(text, rf)
            assert u == parse_unit(format_poly(expanded), rf) == rf.from_poly(expanded), text
            e = SymExpr.bracket(u, rf.t_unit())
            assert parse_expr(format_expr(e), rf) == e


def test_parse_generator_form():
    u = parse_unit("g^3", F5)
    assert u == F5.gen_unit().pow(3)
    assert parse_unit("g", F9) == F9.gen_unit()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_expr("[2", F3)
    with pytest.raises(ParseError):
        parse_expr("2 +", F3)
    with pytest.raises(ParseError):
        parse_expr("[0]", F3)
    with pytest.raises(ParseError):
        parse_expr("eta^-1", F3)
    with pytest.raises(ParseError):
        parse_expr("[2] @ [2]", F3)


def test_field_specs():
    assert parse_field_spec("3") is F3
    assert parse_field_spec("9") is F9
    assert parse_field_spec("3,2") is F9
    assert parse_field_spec("3(t)") is RF3
    assert format_field_spec(F9) == "3,2"
    assert format_field_spec(RF3) == "3(t)"
    assert parse_field_spec(format_field_spec(RF3)) is RF3


def test_format_poly():
    assert format_poly(Poly.make(F3, [1, 2, 1])) == "t^2+2*t+1"
    assert format_poly(Poly.make(F3, [0, 1])) == "t"
    assert format_poly(Poly.zero(F3)) == "0"
    assert format_poly(Poly.make(F3, [2])) == "2"


def test_parser_fuzz_never_crashes_unexpectedly():
    # every input either parses or raises ParseError, nothing else
    rng = random.Random(99)
    alphabet = "0123456789テeta h ps g t[],+-*^()< >"
    fields = (F3, RF3)
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 20)))
        for field in fields:
            try:
                parse_expr(text, field)
            except ParseError:
                pass


def test_size_bound_env_override(monkeypatch):
    import mwk.fields as fields_mod
    from mwk.errors import SizeBound

    monkeypatch.setenv("MWK_SIZE_BOUND", "10")
    assert fields_mod.size_bound() == 10
    with pytest.raises(SizeBound):
        fields_mod.ff_build(11, 2)
    # residue fields take no logarithms, so no bound limits them: F_3[t]/(P)
    # of degree 7 builds and reduces units although 3^7 - 1 = 2 * 1093 has a
    # prime factor beyond 10
    F3 = fields_mod.ff_build(3, 1)
    poly = fields_mod.first_monic_irreducible(F3, 7)
    rf = fields_mod.rat_func_field(F3)
    data = rf.residue_data(fields_mod.Place(rf, poly))
    kappa, reduce_unit = data.kappa, data.reduce_unit
    assert kappa.q == 3**7
    assert reduce_unit(rf.t_unit()).value == 3  # t, encoded as q
    monkeypatch.delenv("MWK_SIZE_BOUND")
    assert fields_mod.size_bound() == fields_mod.DEFAULT_SIZE_BOUND


def test_a_unit_sum_expands_only_the_operands_that_are_no_polynomial(monkeypatch):
    import mwk.exprtext as exprtext
    from mwk.exprtext import parse_unit

    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    expanded = []
    expand = exprtext.expand_fraction
    monkeypatch.setattr(
        exprtext, "expand_fraction", lambda *args: expanded.append(args[2]) or expand(*args)
    )
    # t^3 and 2*t^2 are products and expand once each; the running sum, t and
    # 1 are one polynomial each, and are not expanded again
    got = parse_unit("t^3+2*t^2+t+1", rf)
    assert got == rf.from_poly(Poly.make(F3, [1, 1, 2, 1]))
    assert len(expanded) == 2
    # a sum of k polynomials expands nothing
    expanded.clear()
    assert parse_unit("t+1+t+2+2", rf) == rf.from_poly(Poly.make(F3, [2, 2]))
    assert expanded == []
