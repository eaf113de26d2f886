import random

import pytest

from mwk import valuation
from mwk.errors import DegreeBound, Inhomogeneous, NotAUniformizer
from mwk.fields import (
    Place,
    Poly,
    ff_build,
    ff_build_q,
    first_monic_irreducible,
    rat_func_field,
)
from mwk.model import MWElem, eval_model
from mwk.suites import sample_expr
from mwk.symbols import (
    SymExpr,
    embed_expr,
    one_minus,
    relation_generators,
    rewrite_mw2,
    unit_sampler,
)
from mwk.valuation import (
    CanonicalForm,
    ValuationContext,
    canonical_form,
    equal,
    is_zero,
    residue,
    specialize,
    valuation_context,
)

F3 = ff_build(3, 1)
RF = rat_func_field(F3)
T_PLACE = Place(RF, RF.var_poly())


def units_sampler(rng, max_degree=2):
    def sample():
        while True:
            f = Poly.make(F3, [rng.randrange(3) for _ in range(rng.randrange(1, max_degree + 2))])
            if not f.is_zero():
                return RF.from_poly(f)

    return sample


def test_residue_axioms_at_t():
    ctx = ValuationContext(T_PLACE)
    t = RF.t_unit()
    u = RF.constant(2)
    # [t, u] -> [u-bar]
    got = eval_model(ctx.residue(SymExpr.bracket(t, u)), 1)
    assert got == eval_model(SymExpr.bracket(F3.unit(2)), 1)
    # units only -> 0
    tp1 = RF.from_poly(Poly.make(F3, [1, 1]))
    assert eval_model(ctx.residue(SymExpr.bracket(u, tp1)), 1).is_zero()
    # [t, t] -> [-1]
    got = eval_model(ctx.residue(SymExpr.bracket(t, t)), 1)
    assert got == eval_model(SymExpr.bracket(F3.minus_one()), 1)
    # eta-linearity
    x = SymExpr.bracket(t, tp1).eta_mul()
    assert eval_model(ctx.residue(x), 0) == eval_model(
        ctx.residue(SymExpr.bracket(t, tp1)), 1
    ).eta_mul()


def test_residue_additive():
    rng = random.Random(0)
    ctx = ValuationContext(T_PLACE)
    sample = units_sampler(rng)
    for _ in range(100):
        deg = rng.choice([1, 2])
        x = SymExpr(RF, {})
        y = SymExpr(RF, {})
        for _ in range(2):
            d = rng.randrange(0, 2)
            x = x.add(SymExpr(RF, {(d, tuple(sample() for _ in range(deg + d))): rng.choice([-1, 1, 2])}))
            d = rng.randrange(0, 2)
            y = y.add(SymExpr(RF, {(d, tuple(sample() for _ in range(deg + d))): rng.choice([-1, 1])}))
        lhs = eval_model(ctx.residue(x.add(y)), deg - 1)
        rhs = eval_model(ctx.residue(x), deg - 1).add(eval_model(ctx.residue(y), deg - 1))
        assert lhs == rhs


def test_specialize_is_multiplicative():
    rng = random.Random(1)
    ctx = ValuationContext(T_PLACE)
    sample = units_sampler(rng)
    for _ in range(200):
        dx, dy = rng.choice([0, 1]), rng.choice([0, 1])
        x = SymExpr(RF, {(0, tuple(sample() for _ in range(dx))): 1})
        y = SymExpr(RF, {(rng.randrange(0, 2), ()): 1}).mul(
            SymExpr(RF, {(0, tuple(sample() for _ in range(dy))): 1})
        )
        lhs = ctx.specialize(x.mul(y))
        rhs = ctx.specialize(x).mul(ctx.specialize(y))
        dl = x.degree() + y.degree()
        assert eval_model(lhs, dl) == eval_model(rhs, dl)


def test_specialization_characterization():
    # s([pi^e u]) = [u-bar], and eta goes to eta
    ctx = ValuationContext(T_PLACE)
    t = RF.t_unit()
    tp1 = RF.from_poly(Poly.make(F3, [1, 1]))
    x = SymExpr.bracket(t.pow(2).mul(tp1))
    got = eval_model(ctx.specialize(x), 1)
    assert got == eval_model(SymExpr.bracket(F3.unit(1)), 1)
    assert ctx.specialize(SymExpr.eta(RF)) == SymExpr.eta(F3)
    # a nonzero local unit example
    x = SymExpr.bracket(tp1)
    assert eval_model(ctx.specialize(x), 1) == eval_model(SymExpr.bracket(F3.unit(1)), 1)


def test_specialize_composite_definition():
    rng = random.Random(2)
    sample = units_sampler(rng)
    for place in (T_PLACE, Place(RF, Poly.make(F3, [1, 0, 1]))):
        ctx = ValuationContext(place)
        for _ in range(100):
            deg = rng.choice([0, 1, 2])
            d = rng.randrange(0, 2)
            x = SymExpr(RF, {(d, tuple(sample() for _ in range(deg + d))): rng.choice([-1, 1])})
            lhs = ctx.specialize_via_residue(x)
            rhs = ctx.specialize(x)
            assert eval_model(lhs, deg) == eval_model(rhs, deg)


def test_uniformizer_change_laws():
    rng = random.Random(3)
    sample = units_sampler(rng)
    ctx = ValuationContext(T_PLACE)
    u = RF.constant(2)
    ctx_u = ValuationContext(T_PLACE, u.mul(RF.t_unit()))
    u_bar = F3.unit(2)
    for _ in range(100):
        deg = rng.choice([1, 2])
        d = rng.randrange(0, 2)
        x = SymExpr(RF, {(d, tuple(sample() for _ in range(deg + d))): 1})
        lhs = eval_model(ctx_u.residue(x), deg - 1)
        rhs = eval_model(SymExpr.angle(u_bar).mul(ctx.residue(x)), deg - 1)
        assert lhs == rhs
        lhs = eval_model(ctx_u.specialize(x), deg)
        rhs = eval_model(
            ctx.specialize(x).add(
                SymExpr.eps_elem(F3).mul(SymExpr.bracket(u_bar)).mul(ctx.residue(x))
            ),
            deg,
        )
        assert lhs == rhs


def test_not_a_uniformizer():
    with pytest.raises(NotAUniformizer):
        ValuationContext(T_PLACE, RF.t_unit().pow(2))


def test_canonical_form_examples():
    # constants have empty residues
    lifted = embed_expr(SymExpr.bracket(F3.unit(2)), RF)
    cf = canonical_form(lifted, 1)
    assert cf.base == eval_model(SymExpr.bracket(F3.unit(2)), 1)
    assert not cf.residues
    # [t]: zero specialization, residue 1 at the place t
    cf = canonical_form(SymExpr.bracket(RF.t_unit()), 1)
    assert cf.base.is_zero()
    assert list(cf.residues) == [T_PLACE]
    assert cf.residues[T_PLACE] == MWElem.one(F3)
    # [t, t]: residue [-1] at t
    cf = canonical_form(SymExpr.bracket(RF.t_unit(), RF.t_unit()), 2)
    assert cf.residues[T_PLACE] == eval_model(SymExpr.bracket(F3.minus_one()), 1)


def test_is_zero_examples():
    t = RF.t_unit()
    tp1 = RF.from_poly(Poly.make(F3, [1, 1]))
    assert is_zero(SymExpr.bracket(t, one_minus(t)), 2)
    assert not is_zero(SymExpr.bracket(t), 1)
    diff = SymExpr.bracket(t.mul(tp1)).sub(rewrite_mw2(t, tp1))
    assert is_zero(diff, 1)
    assert equal(SymExpr.bracket(t, t), SymExpr.bracket(t, RF.minus_one()), 2)


def test_relation_generators_vanish_over_function_field():
    rng = random.Random(4)
    sample = units_sampler(rng)
    count = 0
    for kind, gen in relation_generators(RF, 1, 2, sampler=sample, rng=rng, per_family=8):
        if gen.max_term_size() > 6:
            continue
        assert is_zero(gen, 1), (kind, gen.terms)
        count += 1
    assert count >= 20


def test_canonical_form_respects_addition():
    rng = random.Random(5)
    sample = units_sampler(rng)
    for _ in range(60):
        deg = rng.choice([0, 1, 2])
        d1, d2 = rng.randrange(0, 2), rng.randrange(0, 2)
        x = SymExpr(RF, {(d1, tuple(sample() for _ in range(deg + d1))): 1})
        y = SymExpr(RF, {(d2, tuple(sample() for _ in range(deg + d2))): -1})
        cfx, cfy, cfs = canonical_form(x, deg), canonical_form(y, deg), canonical_form(x.add(y), deg)
        assert cfs.base == cfx.base.add(cfy.base)
        for p in set(cfx.residues) | set(cfy.residues) | set(cfs.residues):
            kappa = (cfs.residues.get(p) or cfx.residues.get(p) or cfy.residues[p]).field
            zero = MWElem.zero(kappa, deg - 1)
            got = cfs.residues.get(p, zero)
            want = cfx.residues.get(p, zero).add(cfy.residues.get(p, zero))
            assert got == want


def test_term_size_cap():
    t = RF.t_unit()
    units = tuple(t for _ in range(9))
    with pytest.raises(DegreeBound):
        residue(SymExpr(RF, {(0, units): 1}), T_PLACE)


def test_negative_valuation_entries():
    # [t^-1] interacts correctly with the inverse-power expansion:
    # [t * t^-1] = [1] = 0 must have zero residues everywhere
    t = RF.t_unit()
    assert is_zero(rewrite_mw2(t, t.inv()), 1)
    # [u] + [u^-1] = -eta [u, u^-1] (product relation at uu^-1 = 1), so the
    # residues of ([t^2] + [t^-2] + eta [t^2, t^-2]) * [t+1] must cancel
    ctx = ValuationContext(T_PLACE)
    tp1 = RF.from_poly(Poly.make(F3, [1, 1]))
    combined = (
        SymExpr.bracket(t.pow(2))
        .add(SymExpr.bracket(t.pow(-2)))
        .add(SymExpr.bracket(t.pow(2), t.pow(-2)).eta_mul())
        .mul(SymExpr.bracket(tp1))
    )
    assert eval_model(ctx.residue(combined), 1).is_zero()
    assert is_zero(combined, 2)


def test_reconstruction_from_the_canonical_form():
    # when all residues vanish the element is the constant recovered by the
    # specialization, exactly as the splitting promises
    from mwk.model import model_to_sym

    rng = random.Random(13)
    sample = units_sampler(rng)
    checked = 0
    for _ in range(200):
        deg = rng.choice([0, 1])
        d = rng.randrange(0, 2)
        x = SymExpr(RF, {(d, tuple(sample() for _ in range(deg + d))): rng.choice([-1, 1])})
        cf = canonical_form(x, deg)
        if cf.residues:
            continue
        constant = embed_expr(model_to_sym(cf.base), RF)
        assert is_zero(x.sub(constant), deg)
        checked += 1
    assert checked >= 10


def test_residue_place_at_infinity():
    inf = Place(RF, None)
    ctx = ValuationContext(inf)
    # 1/t is the uniformizer; [1/t, 2] has residue [2]
    inv_t = RF.t_unit().inv()
    got = eval_model(ctx.residue(SymExpr.bracket(inv_t, RF.constant(2))), 1)
    assert got == eval_model(SymExpr.bracket(F3.unit(2)), 1)
    # a degree-0 unit at infinity is regular: residue of its bracket is 0
    u = RF.from_fraction(Poly.make(F3, [1, 2]), Poly.make(F3, [2, 1]))
    assert eval_model(ctx.residue(SymExpr.bracket(u, u)), 1).is_zero()


def test_model_valued_scan_matches_the_symbolic_residue():
    # the model-valued residue and specialization used by the zero test
    # against eval_model of the symbolic rewriting, at the support places,
    # the place t, a degree-2 place and infinity; and, at t and the degree-2
    # place, with entries times pi^e for |e| <= 5, so that every term of the
    # scan's c_e (floor(|e|/2) among them) meets the symbolic path
    from mwk.fields import ff_build_q, first_monic_irreducible
    from mwk.suites import sample_expr, unit_sampler

    rng = random.Random(2024)
    powers = random.Random(13)
    compared = 0

    def compare(x, deg, place):
        ctx = ValuationContext(place)
        assert ctx.residue_model(x, deg) == eval_model(ctx.residue(x), deg - 1), (x, place)
        assert ctx.specialize_model(x, deg) == eval_model(ctx.specialize(x), deg), (x, place)

    for q in (3, 5, 7, 9):
        rf = rat_func_field(ff_build_q(q))
        sampler = unit_sampler(rf, rng, max_degree=2)
        fixed = [
            Place(rf, rf.var_poly()),
            Place(rf, first_monic_irreducible(rf.base, 2)),
            Place(rf, None),
        ]
        for k in range(12):
            deg = rng.choice([-1, 0, 1, 2])
            x = sample_expr(rf, deg, rng, max_terms=2, max_eta=1, sampler=sampler)
            for place in dict.fromkeys(fixed + list(x.support_places())):
                compare(x, deg, place)
                compared += 1
            # one entry per term is shifted, at t and the degree-2 place in
            # turn: the symbolic side branches at every repeated uniformizer
            place = fixed[k % 2]
            pi = place.uniformizer()
            terms = []
            for (d, units), c in x.terms.items():
                if units:
                    i = powers.randrange(len(units))
                    a = units[i].mul(pi.pow(powers.randint(-5, 5)))
                    units = units[:i] + (a,) + units[i + 1 :]
                terms.append(((d, units), c))
            compare(SymExpr(rf, terms), deg, place)
            compared += 1
    assert compared > 200


def test_minus_one_powers_of_length_two_and_more_vanish():
    # [-1]^k = 0 for k >= 2 over every supported F_q(t): the closed form that
    # ValuationOracle.minus_one_power and twisted_sum rely on
    for q in (3, 5, 9, 25):
        rf = rat_func_field(ff_build_q(q))
        m1 = rf.minus_one()
        for k in (2, 3):
            form = canonical_form(SymExpr.bracket(*([m1] * k)), k)
            assert form.is_zero() and not form.residues, (q, k)


def full_scan(x, degree):
    """The canonical form computed without skipping anything: the
    specialization at t and the residue of all of x at t and at every
    support place, each through the model-valued scan."""
    rf = x.field
    t_place = Place(rf, rf.var_poly())
    base = valuation_context(t_place).specialize_model(x, degree)
    residues = {}
    for place in dict.fromkeys([t_place] + x.support_places()):
        r = valuation_context(place).residue_model(x, degree)
        if not r.is_zero():
            residues[place] = r
    return CanonicalForm(rf, degree, base, residues)


def sampled_inputs(rf, rng, degree):
    """Seeded expressions of one degree: sampled ones (eta terms among them),
    the structurally zero one, and a sample with one entry per term times
    pi^e, |e| <= 3, for pi the uniformizer at t or at a support place."""
    sampler = unit_sampler(rf, rng, max_degree=2)
    out = [SymExpr.zero(rf)]
    for _ in range(4):
        x = sample_expr(rf, degree, rng, max_terms=3, max_eta=2, sampler=sampler)
        out.append(x)
        places = [Place(rf, rf.var_poly())] + x.support_places()
        pi = rng.choice(places).uniformizer()
        terms = []
        for (d, units), c in x.terms.items():
            if units:
                i = rng.randrange(len(units))
                units = units[:i] + (units[i].mul(pi.pow(rng.randint(-3, 3))),) + units[i + 1 :]
            terms.append(((d, units), c))
        out.append(SymExpr(rf, terms))
    return out


def test_canonical_form_equals_the_full_scan():
    # the full scan sees the terms of 3 or more entries that canonical_form
    # skips, in degrees <= 1 as well, where the specialization is scanned
    rng = random.Random(24)
    compared = nonzero = long_low = 0
    for q in (3, 5, 25):
        rf = rat_func_field(ff_build_q(q))
        for degree in range(-2, 6):
            for x in sampled_inputs(rf, rng, degree):
                got, want = canonical_form(x, degree), full_scan(x, degree)
                assert got == want, (q, degree, x)
                assert got.to_json() == want.to_json() and repr(got) == repr(want)
                compared += 1
                nonzero += not got.is_zero()
                long_low += degree <= 1 and any(len(units) >= 3 for _, units in x.terms)
    assert compared == 3 * 8 * 9 and nonzero > 40 and long_low > 0


def test_canonical_form_computes_only_what_can_be_nonzero(monkeypatch):
    calls = {"lookup": 0, "build": 0, "specialize": 0, "residue": 0}
    lookup = valuation.valuation_context
    build = ValuationContext.__init__
    specialize_model = ValuationContext.specialize_model
    residue_model = ValuationContext.residue_model

    def counted_lookup(place):
        calls["lookup"] += 1
        return lookup(place)

    def counted_build(ctx, *args):
        calls["build"] += 1
        build(ctx, *args)

    def counted_specialize(ctx, x, degree):
        calls["specialize"] += 1
        return specialize_model(ctx, x, degree)

    def checked_residue(ctx, x, degree):
        calls["residue"] += 1
        for _, units in x.terms:
            assert any(u.valuation(ctx.place) for u in units), (ctx.place, x)
        return residue_model(ctx, x, degree)

    for q in (3, 5, 25):
        monkeypatch.setattr(rat_func_field(ff_build_q(q)), "_places", {})
    monkeypatch.setattr(valuation, "valuation_context", counted_lookup)
    monkeypatch.setattr(ValuationContext, "__init__", counted_build)
    monkeypatch.setattr(ValuationContext, "specialize_model", counted_specialize)
    monkeypatch.setattr(ValuationContext, "residue_model", checked_residue)
    rng = random.Random(7)
    for q in (3, 5, 25):
        rf = rat_func_field(ff_build_q(q))
        for degree in range(-2, 6):
            before = dict(calls)
            for x in sampled_inputs(rf, rng, degree):
                canonical_form(x, degree)
            if degree >= 3:
                assert calls == before, (q, degree)
            elif degree == 2:
                assert calls["specialize"] == before["specialize"], q
                assert calls["residue"] > before["residue"], q
            else:
                assert calls["specialize"] > before["specialize"], (q, degree)


def reference_entry(ctx, a):
    """(e, u-bar) by the route through a product: u = a * pi^-e is built and
    then reduced by the checked `reduce_unit`."""
    e = a.valuation(ctx.place)
    return e, ctx.reduce_unit(a.mul(ctx.pi.pow(-e)))


def test_entries_reduce_from_their_own_factors_as_by_the_product_route():
    rng = random.Random(26)
    for q in (3, 25):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        sampler = unit_sampler(rf, rng, max_degree=2)

        def with_valuation(place, e):
            a = sampler().mul(sampler().inv())
            return a.mul(place.uniformizer().pow(e - a.valuation(place)))

        places = [Place(rf, first_monic_irreducible(F, k)) for k in (1, 2, 3)] + [Place(rf, None)]
        for place in places:
            u = with_valuation(place, 0)
            while u.is_one():
                u = with_valuation(place, 0)
            for pi in (place.uniformizer(), u.mul(place.uniformizer())):
                ctx = ValuationContext(place, pi)
                for e in range(-3, 4):
                    a, b = with_valuation(place, e), with_valuation(place, rng.randint(-3, 3))
                    want_e, want_bar = reference_entry(ctx, a)
                    assert want_e == e
                    assert ctx._entry_model(a)[:2] == (e, MWElem.from_unit(want_bar)), (place, pi, a)
                    b_bar = reference_entry(ctx, b)[1]
                    x = SymExpr.bracket(a, b).add(SymExpr.bracket(b).eta_mul())
                    want = SymExpr.bracket(want_bar, b_bar).add(SymExpr.bracket(b_bar).eta_mul())
                    assert ctx.specialize(x) == want, (place, pi, a, b)


def test_canonical_form_builds_no_unit_on_factored_input(monkeypatch):
    from mwk.fields import RatFuncUnit

    rng = random.Random(27)
    inputs = [
        (rf, degree, x)
        for rf in (rat_func_field(ff_build_q(3)), rat_func_field(ff_build_q(25)))
        for degree in range(-1, 3)
        for x in sampled_inputs(rf, rng, degree)
    ]
    calls = []
    for name in ("mul", "pow"):
        method = getattr(RatFuncUnit, name)
        monkeypatch.setattr(
            RatFuncUnit, name, lambda u, v, method=method: calls.append(u) or method(u, v)
        )
    for q in (3, 25):
        monkeypatch.setattr(rat_func_field(ff_build_q(q)), "_places", {})
    residues = 0
    for _, degree, x in inputs:
        residues += len(canonical_form(x, degree).residues)
    assert not calls and residues > 20


def test_canonical_form_builds_no_residue_field_unit(monkeypatch):
    """The scan reads each [u-bar] from u-bar's encoding, and a cold context
    builds no unit either, so canonical_form makes no entry in the weak unit
    table of any residue field F_q[t]/(P)."""
    from mwk.fields import FFUnit, QuotientField

    rng = random.Random(31)
    inputs = [
        (degree, x)
        for rf in (rat_func_field(ff_build_q(3)), rat_func_field(ff_build_q(25)))
        for degree in range(-1, 3)
        for x in sampled_inputs(rf, rng, degree)
    ]
    built = []
    new = FFUnit.__new__

    def counting_new(cls, field, value):
        if isinstance(field, QuotientField):
            built.append((field, value))
        return new(cls, field, value)

    monkeypatch.setattr(FFUnit, "__new__", counting_new)
    for q in (3, 25):
        monkeypatch.setattr(rat_func_field(ff_build_q(q)), "_places", {})
    kappa_residues = 0
    for degree, x in inputs:
        residues = canonical_form(x, degree).residues
        kappa_residues += sum(place.degree >= 2 for place in residues)
    assert not built and kappa_residues >= 5


def test_inhomogeneous_inputs_raise_in_every_degree():
    rf = rat_func_field(ff_build_q(5))
    t, t1 = rf.t_unit(), rf.from_poly(Poly.make(rf.base, [1, 1]))
    for degree in range(3, 6):
        x = SymExpr.bracket(*([t, t1] * degree)[:degree])
        for stated in (degree - 1, degree + 1):
            with pytest.raises(Inhomogeneous):
                canonical_form(x, stated)
        mixed = x.add(SymExpr.bracket(*([t1] * (degree + 1))))
        for stated in (degree, degree + 1):
            with pytest.raises(Inhomogeneous):
                canonical_form(mixed, stated)


def long_terms(rf, rng, count):
    """Seeded terms eta^d [a_1, ..., a_r] with r = 3 or 4 and d <= 3, so of
    degree -1 to 4: entries drawn by the unit sampler, some repeated, and
    one times a power of t, so that the scans meet repeated uniformizers."""
    sampler = unit_sampler(rf, rng, max_degree=2)
    out = []
    for _ in range(count):
        units = [sampler()]
        for _ in range(rng.choice([2, 2, 3])):
            units.append(rng.choice(units) if rng.random() < 0.3 else sampler())
        i = rng.randrange(len(units))
        units[i] = units[i].mul(rf.t_unit().pow(rng.randint(-2, 2)))
        out.append((rng.randrange(4), tuple(units)))
    return out


def test_terms_of_three_or_more_entries_vanish_at_every_place():
    # what canonical_form's length skip relies on: K^MW_r(F_q(t)) = 0 for
    # r >= 3, read through the unskipped scan and the symbolic residue at t,
    # at infinity and at every place of the term's support
    rng = random.Random(32)
    low = residues = 0
    for q in (3, 5, 25):
        rf = rat_func_field(ff_build_q(q))
        fixed = [Place(rf, rf.var_poly()), Place(rf, None)]
        for d, units in long_terms(rf, rng, 24):
            x = SymExpr(rf, [((d, units), 1)])
            degree = len(units) - d
            low += degree <= 1
            for place in dict.fromkeys(fixed + x.support_places()):
                ctx = valuation_context(place)
                s, r = ctx._scan_term(d, units)
                assert s.is_zero() and r.is_zero(), (q, d, units, place)
                assert eval_model(ctx.specialize(x), degree).is_zero(), (q, d, units, place)
                # the rewriting expands each entry of nonzero valuation into 3 terms
                if sum(bool(u.valuation(place)) for u in units) <= 3:
                    assert eval_model(ctx.residue(x), degree - 1).is_zero(), (q, d, units, place)
                    residues += 1
    assert low >= 10 and residues >= 100


def test_only_canonical_form_skips_terms_of_three_or_more_entries(monkeypatch):
    scanned = []
    scan_term = ValuationContext._scan_term

    def recorded(ctx, d, units):
        scanned.append(len(units))
        return scan_term(ctx, d, units)

    monkeypatch.setattr(ValuationContext, "_scan_term", recorded)
    rng = random.Random(24)  # the inputs of test_canonical_form_equals_the_full_scan
    inputs = [
        (degree, x)
        for q in (3, 5, 25)
        for degree in range(-2, 6)
        for x in sampled_inputs(rat_func_field(ff_build_q(q)), rng, degree)
    ]
    low_long = sum(len(units) >= 3 for degree, x in inputs if degree <= 1 for _, units in x.terms)
    assert low_long > 0
    for degree, x in inputs:
        canonical_form(x, degree)
    assert scanned and max(scanned) <= 2
    # called directly, the scans see every term
    del scanned[:]
    for degree, x in inputs:
        if degree <= 2 and any(len(units) >= 3 for _, units in x.terms):
            ctx = valuation_context(Place(x.field, x.field.var_poly()))
            ctx.residue_model(x, degree)
            ctx.specialize_model(x, degree)
    assert sum(n >= 3 for n in scanned) == 2 * sum(
        len(units) >= 3 for degree, x in inputs if degree <= 2 for _, units in x.terms
    )


def test_homogeneity_is_checked_before_the_length_skip():
    rf = rat_func_field(ff_build_q(5))
    t, t1, t2 = (rf.from_poly(Poly.make(rf.base, c)) for c in ([0, 1], [1, 1], [2, 0, 1]))
    long = SymExpr.bracket(t, t1, t2).eta_mul(2)  # degree 1, all of it zero by length
    mixed = SymExpr.bracket(t).add(SymExpr.bracket(t, t1, t2).eta_mul())  # degrees 1 and 2
    for stated in (1, 2):
        with pytest.raises(Inhomogeneous):
            canonical_form(mixed, stated)
    for stated in (0, 2):
        with pytest.raises(Inhomogeneous):
            canonical_form(long, stated)
    assert not long.is_structurally_zero() and long.degree() == 1
    assert is_zero(long, 1) and canonical_form(long, 1).is_zero()
    assert canonical_form(long, 1) == canonical_form(SymExpr.zero(rf), 1)
