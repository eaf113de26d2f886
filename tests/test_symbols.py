import random

import pytest

from mwk.errors import FieldMismatch, Inhomogeneous
from mwk.fields import ff_build, rat_func_field
from mwk.model import MWElem, eval_model
from mwk.symbols import (
    SymExpr,
    embed_expr,
    one_minus,
    power_symbol,
    relation_generators,
    rewrite_mw2,
    unit_sampler,
)

F3 = ff_build(3, 1)
F5 = ff_build(5, 1)


def _fast_path_fields():
    return [F3, ff_build(3, 2), rat_func_field(F3), rat_func_field(ff_build(5, 2))]


def assert_merged(x):
    """x holds only nonzero coefficients and is what the checked constructor
    builds from its terms."""
    assert all(x.terms.values()), x.terms
    assert x == SymExpr(x.field, dict(x.terms))


def test_ring_operations_hand_over_merged_terms():
    """The ring operations skip the constructor's merge: each result is
    already merged, also where coefficients cancel, and no operand changes."""
    rng = random.Random(15)
    for F in _fast_path_fields():
        pool = [unit_sampler(F, rng)() for _ in range(3)]  # few units: keys collide

        def rand_expr():
            terms = []
            for _ in range(rng.randrange(0, 5)):
                units = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 3)))
                terms.append(((rng.randrange(0, 3), units), rng.randrange(-2, 3)))
            return SymExpr(F, terms)

        one, eta, a = SymExpr.one(F), SymExpr.eta(F), SymExpr.bracket(pool[0])
        # products whose coefficients sum to 0: (1 + eta)(eta - 1) loses its
        # eta term, ([a] + [a, a])([a, a] - [a]) its [a, a, a] term
        cancelling = {
            (1, ()): (one.add(eta), eta.sub(one)),
            (0, (pool[0],) * 3): (a.add(a.mul(a)), a.mul(a).sub(a)),
        }
        for key, (x, y) in cancelling.items():
            assert key not in x.mul(y).terms
        pairs = list(cancelling.values()) + [(rand_expr(), rand_expr()) for _ in range(40)]
        for x, y in pairs:
            before = (dict(x.terms), dict(y.terms))
            zeros = [x.add(x.neg()), x.sub(x), x.neg().add(x), x.scale(0)]
            results = zeros + [
                x.add(y), x.sub(y), x.neg(), x.mul(y), y.mul(x),
                x.eta_mul(), x.eta_mul(2), x.scale(rng.randrange(-3, 4)),
            ]
            for r in results:
                assert r.field is F
                assert_merged(r)
            assert all(z.is_structurally_zero() for z in zeros)
            assert x.add(y).sub(y) == x
            assert (dict(x.terms), dict(y.terms)) == before


def test_constructor_still_merges_outside_input():
    for F in _fast_path_fields():
        k = (0, (F.minus_one(),))
        assert SymExpr(F, [(k, 1), (k, -1)]).is_structurally_zero()
        assert SymExpr(F, {k: 0}).is_structurally_zero()
        assert SymExpr(F, [(k, 2), ((1, ()), 0), (k, 1)]).terms == {k: 3}


def test_add_inverse_cancels():
    a = SymExpr.bracket(F3.unit(2))
    assert a.add(a.neg()).is_structurally_zero()
    assert a.add(a).terms == {(0, (F3.unit(2),)): 2}


def test_mixed_degree_expressions():
    a = F3.unit(2)
    mixed = SymExpr.bracket(a, a).eta_mul().add(SymExpr.const(F3, 1))
    assert mixed.term_degrees() == {0, 1}
    with pytest.raises(Inhomogeneous):
        mixed.degree()


def test_mul_concatenates_and_distributes():
    a, b, c = F5.unit(2), F5.unit(3), F5.unit(4)
    ab = SymExpr.bracket(a).mul(SymExpr.bracket(b))
    assert ab.terms == {(0, (a, b)): 1}
    lhs = SymExpr.bracket(a).add(SymExpr.bracket(b)).mul(SymExpr.bracket(c))
    rhs = SymExpr.bracket(a, c).add(SymExpr.bracket(b, c))
    assert lhs == rhs


def test_eta_is_central_structurally():
    a = F3.unit(2)
    left = SymExpr.eta(F3).mul(SymExpr.bracket(a))
    right = SymExpr.bracket(a).mul(SymExpr.eta(F3))
    assert left == right
    assert left.degree() == 0


def test_ring_axioms_associativity_distributivity():
    rng = random.Random(0)

    def rand_expr():
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            d = rng.randrange(0, 2)
            units = tuple(F5.unit(rng.randrange(1, 5)) for _ in range(rng.randrange(0, 3)))
            terms[(d, units)] = rng.randrange(-2, 3)
        return SymExpr(F5, terms)

    for _ in range(60):
        x, y, z = rand_expr(), rand_expr(), rand_expr()
        assert x.mul(y).mul(z) == x.mul(y.mul(z))
        assert x.mul(y.add(z)) == x.mul(y).add(x.mul(z))
        assert x.add(y).mul(z) == x.mul(z).add(y.mul(z))


def test_degree_bookkeeping_under_mul():
    a = F3.unit(2)
    x = SymExpr.bracket(a, a).eta_mul()  # degree 1
    y = SymExpr.bracket(a)  # degree 1
    assert x.mul(y).degree() == 2


def test_angle_h_eps_definitions():
    a = F3.unit(2)
    assert SymExpr.angle(a).terms == {(0, ()): 1, (1, (a,)): 1}
    h = SymExpr.h_elem(F3)
    assert h.terms == {(0, ()): 2, (1, (F3.minus_one(),)): 1}
    eps = SymExpr.eps_elem(F3)
    assert eps.terms == {(0, ()): -1, (1, (F3.minus_one(),)): -1}


def test_angle_one_evaluates_to_one():
    assert eval_model(SymExpr.angle(F3.one_unit()), 0) == MWElem.one(F3)


def test_power_symbol_agrees_with_bracket_of_power():
    for F in (F3, F5, ff_build(3, 2)):
        for k in range(F.q - 1):
            a = F.unit_exp(k)
            for e in range(-4, 6):
                want = (
                    eval_model(SymExpr.bracket(a.pow(e)), 1)
                    if e != 0
                    else MWElem.zero(F, 1)
                )
                assert eval_model(power_symbol(a, e), 1) == want, (F, k, e)


def test_power_symbol_two_is_h_times_bracket():
    a = F5.unit(2)
    lhs = eval_model(power_symbol(a, 2), 1)
    rhs = eval_model(SymExpr.h_elem(F5).mul(SymExpr.bracket(a)), 1)
    assert lhs == rhs


def test_rewrite_mw2_examples():
    a = F5.unit(3)
    one = F5.one_unit()
    assert eval_model(rewrite_mw2(a, one), 1) == eval_model(SymExpr.bracket(a), 1)
    assert eval_model(rewrite_mw2(a, a), 1) == eval_model(power_symbol(a, 2), 1)
    assert eval_model(rewrite_mw2(a, a.inv()), 1).is_zero()
    # the unit-form variant: <a>[b] = [ab] - [a]
    b = F5.unit(2)
    lhs = SymExpr.angle(a).mul(SymExpr.bracket(b))
    rhs = SymExpr.bracket(a.mul(b)).sub(SymExpr.bracket(a))
    assert eval_model(lhs, 1) == eval_model(rhs, 1)


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        SymExpr.bracket(F3.unit(2)).add(SymExpr.bracket(F5.unit(2)))
    with pytest.raises(FieldMismatch):
        SymExpr.bracket(F3.unit(2), F5.unit(2))


def test_one_minus():
    assert one_minus(F3.one_unit()) is None
    assert one_minus(F3.unit(2)).value == 2  # 1 - 2 = -1 = 2
    rf = rat_func_field(F3)
    t = rf.t_unit()
    omt = one_minus(t)
    # 1 - t = -(t - 1) = 2 * (t + 2)
    assert omt.const == 2
    assert [(p.coeffs, e) for p, e in omt.factors] == [((2, 1), 1)]


def test_relation_generators_evaluate_to_zero_over_model():
    rng = random.Random(4)
    for F in (F3, F5):
        for n in (1, 2):
            count = 0
            sampler = unit_sampler(F, rng)
            for kind, gen in relation_generators(
                F, n, d_max=2, rng=rng, per_family=6, sampler=sampler
            ):
                assert eval_model(gen, n).is_zero(), (F, n, kind, gen.terms)
                count += 1
            assert count > 10


def test_embed_expr_constant_into_function_field():
    rf = rat_func_field(F3)
    e = SymExpr.bracket(F3.unit(2)).eta_mul()
    lifted = embed_expr(e, rf)
    (key,) = lifted.terms
    d, units = key
    assert d == 1 and not units[0].factors and units[0].const == 2


def test_power_squares_and_multiplies(monkeypatch):
    calls = []
    mul = SymExpr.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SymExpr, "mul", counted)
    eta = SymExpr.eta(F3)
    x = eta.pow(10**6)
    assert len(calls) <= 64
    assert x == SymExpr(F3, {(10**6, ()): 1})
    # the same terms and coefficients as the product taken factor by factor
    monkeypatch.undo()
    for base in (SymExpr.h_elem(F3), eta.add(SymExpr.bracket(F3.minus_one()))):
        for e in range(7):
            want = SymExpr.one(F3)
            for _ in range(e):
                want = want.mul(base)
            assert base.pow(e) == want


def test_hash_is_kept_and_agrees_with_equality():
    rng = random.Random(31)
    for F in _fast_path_fields():
        sample = unit_sampler(F, rng)
        a, b = sample(), sample()
        x = SymExpr.bracket(a, b).add(SymExpr.eta(F).mul(SymExpr.bracket(a)))
        y = SymExpr(F, {(1, (a,)): 1, (0, (a, b)): 1})
        for z in (x, y):
            with pytest.raises(AttributeError):
                z._hash  # unset until the first hash
        assert x == y and hash(x) == hash(y)
        table = {x: "x"}
        assert table[y] == "x" and hash(x) == x._hash == hash((id(F), frozenset(x.terms.items())))
        cancelled = x.sub(y)
        assert cancelled == SymExpr.zero(F) and hash(cancelled) == hash(SymExpr.zero(F))
