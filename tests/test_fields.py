import functools
import gc
import itertools
import random
from math import isqrt

import pytest

from mwk.errors import (
    DegreeBound,
    EvenCharacteristic,
    FieldMismatch,
    NotPrime,
    NotRegularAtPlace,
    SizeBound,
    ZeroPolynomial,
)
from mwk.fields import (
    FFUnit,
    Place,
    Poly,
    QuotientField,
    RatFuncUnit,
    ff_build,
    ff_build_q,
    _is_irreducible,
    first_monic_irreducible,
    monic_irreducibles,
    poly_factor,
    rat_func_field,
    size_bound,
)


def is_irreducible(f):
    return _is_irreducible(f.field, f.monic())


def brute_order(field, value):
    acc, n = value, 1
    while acc != 1:
        acc = field.mul(acc, value)
        n += 1
    return n


def test_f3_generator_has_full_order():
    F3 = ff_build(3, 1)
    assert F3.generator == 2
    assert brute_order(F3, 2) == 2
    # 2 is the smallest element of order q-1 = 2
    assert brute_order(F3, 1) == 1


def test_f9_modulus_is_lex_smallest_irreducible():
    F9 = ff_build(3, 2)
    assert F9.modulus == (1, 0, 1)  # t^2 + 1: -1 is not a square mod 3
    # trial division oracle: no monic linear polynomial divides it
    F3 = ff_build(3, 1)
    m = Poly(F3, (1, 0, 1))
    for c in range(3):
        lin = Poly.make(F3, [c, 1])
        assert not m.mod(lin).is_zero()
    assert brute_order(F9, F9.generator) == 8


def test_ff_build_moduli_are_pinned():
    # the defining polynomials (coefficients low to high) of the reference
    # build; every canonical form and field encoding depends on them
    expected = {
        (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (3, 4): (2, 1, 0, 0, 1),
        (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
        (5, 2): (2, 0, 1),
        (5, 4): (2, 0, 0, 0, 1),
        (7, 2): (1, 0, 1),
        (7, 3): (2, 0, 0, 1),
    }
    for (p, d), modulus in expected.items():
        assert ff_build(p, d).modulus == modulus, (p, d)


# the generator of every ff_build(p, d), p odd, d >= 2, p^d <= 10,000, of the
# reference build; every unit exponent depends on them
EXTENSION_GENERATORS = {
    (3, 2): 4, (3, 3): 3, (3, 4): 3, (3, 5): 3, (3, 6): 3, (3, 7): 5, (3, 8): 38,
    (5, 2): 6, (5, 3): 9, (5, 4): 6, (5, 5): 10, (7, 2): 9, (7, 3): 22, (7, 4): 12,
    (11, 2): 15, (11, 3): 11, (13, 2): 15, (13, 3): 15, (17, 2): 19, (17, 3): 17,
    (19, 2): 22, (19, 3): 29, (23, 2): 25, (29, 2): 30, (31, 2): 35, (37, 2): 41,
    (41, 2): 43, (43, 2): 45, (47, 2): 49, (53, 2): 54, (59, 2): 62, (61, 2): 63,
    (67, 2): 74, (71, 2): 79, (73, 2): 76, (79, 2): 85, (83, 2): 93, (89, 2): 91,
    (97, 2): 101,
}

# embedding tables F_a -> F_b (encoding of the image of each encoding of F_a)
EMBEDDINGS = {
    (3, 9): [0, 1, 2],
    (3, 27): [0, 1, 2],
    (3, 81): [0, 1, 2],
    (7, 49): [0, 1, 2, 3, 4, 5, 6],
    (9, 81): [0, 1, 2, 42, 43, 44, 75, 76, 77],
    (5, 25): [0, 1, 2, 3, 4],
    (25, 625): [
        0, 1, 2, 3, 4, 25, 26, 27, 28, 29, 50, 51, 52, 53, 54,
        75, 76, 77, 78, 79, 100, 101, 102, 103, 104,
    ],
    (27, 729): [
        0, 1, 2, 144, 145, 146, 207, 208, 209, 381, 382, 383, 444, 445,
        446, 264, 265, 266, 681, 682, 683, 501, 502, 503, 645, 646, 647,
    ],
}


def test_extension_fields_generators_exp_tables_and_embeddings_are_pinned():
    bound = size_bound()
    expected_keys = {
        (p, d)
        for p in range(3, isqrt(bound) + 1, 2)
        if all(p % k for k in range(3, isqrt(p) + 1, 2))
        for d in range(2, 64)
        if p**d <= bound
    }
    assert set(EXTENSION_GENERATORS) == expected_keys
    for (p, d), generator in EXTENSION_GENERATORS.items():
        F = ff_build(p, d)
        assert F.generator == generator, (p, d)
        if F.q > 729:
            continue
        # the exp table against powers of the generator in F_p[x]/(modulus)
        Fp = ff_build(p, 1)
        modulus = Poly(Fp, F.modulus)
        g = Poly.make(Fp, fixed_width_digits(F, generator))
        power = Poly.const(Fp, 1)
        for k in range(F.q - 1):
            assert F.gen_power(k) == from_digits(F, power.coeffs), (p, d, k)
            power = power.mul(g).mod(modulus)
    for (a, b), table in EMBEDDINGS.items():
        assert ff_build_q(a).embedding(ff_build_q(b)) == table, (a, b)


def test_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        ff_build(2, 1)
    with pytest.raises(EvenCharacteristic):  # before the bound
        ff_build(2, 10**9)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        ff_build(9, 1)
    with pytest.raises(NotPrime):
        ff_build_q(12)
    with pytest.raises(NotPrime):  # 1^d is within any bound
        ff_build(1, 10**9)


def test_size_bound(monkeypatch):
    with pytest.raises(SizeBound):
        ff_build(101, 3)
    with pytest.raises(SizeBound, match="extension degree"):
        ff_build(9, 0)
    # the bound comes before primality, and p^d is not written out
    with pytest.raises(SizeBound, match=r"p\^d = 10001\^1 exceeds bound"):
        ff_build(10001, 1)
    with pytest.raises(SizeBound, match=r"p\^d = 3\^9000 exceeds"):
        ff_build(3, 9000)
    # a field built earlier is checked against a lowered bound
    assert ff_build(3, 2).q == 9
    monkeypatch.setenv("MWK_SIZE_BOUND", "8")
    with pytest.raises(SizeBound):
        ff_build(3, 2)


def test_square_classes_by_enumeration():
    F3 = ff_build(3, 1)
    squares = {F3.mul(a, a) for a in range(1, 3)}
    assert squares == {1}
    assert not F3.unit(2).is_square()
    F5 = ff_build(5, 1)
    squares5 = {F5.mul(a, a) for a in range(1, 5)}
    assert squares5 == {1, 4}
    assert F5.unit(4).is_square()
    assert not F5.unit(2).is_square()


def test_unit_group_identities():
    for q in ((3, 1), (5, 1), (3, 2), (7, 1)):
        F = ff_build(*q)
        rng = random.Random(0)
        for _ in range(50):
            u = F.unit_exp(rng.randrange(F.q - 1))
            v = F.unit_exp(rng.randrange(F.q - 1))
            assert u.mul(u.inv()).is_one()
            assert u.mul(u).is_square()
            # is_square(u) xor is_square(-u) iff -1 is a nonsquare (q = 3 mod 4)
            flips = u.is_square() != u.negate().is_square()
            assert flips == (F.q % 4 == 3)
            assert u.mul(v).value == F.mul(u.value, v.value)


def test_unit_embedding_is_field_hom():
    F3, F9 = ff_build(3, 1), ff_build(3, 2)
    for a in range(1, 3):
        for b in range(1, 3):
            ua, ub = F3.unit(a), F3.unit(b)
            assert ua.embed(F9).mul(ub.embed(F9)) == ua.mul(ub).embed(F9)
    # additivity on values
    table = F3.embedding(F9)
    for a in range(3):
        for b in range(3):
            assert table[F3.add(a, b)] == F9.add(table[a], table[b])


def test_poly_factor_examples():
    F3 = ff_build(3, 1)
    lead, fac = poly_factor(Poly.make(F3, [2, 0, 1]))  # t^2 - 1
    assert lead.value == 1
    assert {p.coeffs: e for p, e in fac.items()} == {(1, 1): 1, (2, 1): 1}
    lead, fac = poly_factor(Poly.make(F3, [1, 0, 1]))  # t^2 + 1 irreducible
    assert list(fac.values()) == [1]
    assert next(iter(fac)).coeffs == (1, 0, 1)
    lead, fac = poly_factor(Poly.make(F3, [0, 2]))  # 2t
    assert lead.value == 2
    assert {p.coeffs for p in fac} == {(0, 1)}


def test_poly_factor_merges_products():
    F5 = ff_build(5, 1)
    rng = random.Random(1)
    for _ in range(40):
        f = Poly.make(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 5))])
        g = Poly.make(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 5))])
        if f.is_zero() or g.is_zero():
            continue
        lf, ff_ = poly_factor(f)
        lg, fg = poly_factor(g)
        lp, fp = poly_factor(f.mul(g))
        merged = dict(ff_)
        for p, e in fg.items():
            merged[p] = merged.get(p, 0) + e
        assert fp == merged
        assert lp.value == ff_build(5, 1).mul(lf.value, lg.value)


def test_poly_factor_errors():
    F3 = ff_build(3, 1)
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly.zero(F3))
    with pytest.raises(DegreeBound):
        poly_factor(Poly.make(F3, [1] + [0] * 12 + [1]))
    # the division kernels refuse a zero divisor for both Poly divisions
    for divide in (Poly.divmod, Poly.mod):
        with pytest.raises(ZeroPolynomial):
            divide(Poly.make(F3, [1, 1]), Poly.zero(F3))
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F3).monic()


def test_unit_normalize_cancellation():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    u = rf.from_fraction(Poly.make(F3, [2, 0, 1]), Poly.make(F3, [1, 1]))
    assert u.const == 1
    assert [(p.coeffs, e) for p, e in u.factors] == [((2, 1), 1)]
    u = rf.from_fraction(Poly.const(F3, 2), Poly.const(F3, 1))
    assert u.const == 2 and not u.factors
    t = Poly.var(F3)
    assert rf.from_fraction(t, t).is_one()


def test_unit_normalize_equivalent_fractions():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    rng = random.Random(2)
    for _ in range(30):
        num = Poly.make(F3, [rng.randrange(3) for _ in range(3)])
        den = Poly.make(F3, [rng.randrange(3) for _ in range(2)])
        mul = Poly.make(F3, [rng.randrange(3) for _ in range(2)])
        if num.is_zero() or den.is_zero() or mul.is_zero():
            continue
        assert rf.from_fraction(num, den) == rf.from_fraction(num.mul(mul), den.mul(mul))


def test_residue_field_linear_place():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    place = Place(rf, Poly.make(F3, [1, 1]))  # t + 1
    data = place.residue_data()
    kappa, reduce_unit = data.kappa, data.reduce_unit
    assert kappa is F3
    assert reduce_unit(rf.t_unit()).value == 2  # t -> -1 = 2


def test_residue_field_quadratic_place():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    place = Place(rf, Poly.make(F3, [1, 0, 1]))
    data = place.residue_data()
    kappa, reduce_unit = data.kappa, data.reduce_unit
    assert kappa.q == 9
    theta = reduce_unit(rf.t_unit())
    # the image of t is a root of t^2 + 1
    val = kappa.add(kappa.mul(theta.value, theta.value), 1)
    assert val == 0


def test_residue_reduction_multiplicative():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    rng = random.Random(3)
    for place in (
        Place(rf, Poly.make(F3, [1, 1])),
        Place(rf, Poly.make(F3, [1, 0, 1])),
        Place(rf, None),
    ):
        data = place.residue_data()
        kappa, reduce_unit = data.kappa, data.reduce_unit
        for _ in range(30):
            units = []
            while len(units) < 2:
                f = Poly.make(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
                if f.is_zero():
                    continue
                u = rf.from_poly(f)
                if u.valuation(place) == 0:
                    units.append(u)
            u, v = units
            assert reduce_unit(u.mul(v)) == reduce_unit(u).mul(reduce_unit(v))


def test_reduce_at_place_requires_regularity():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    place = Place(rf, rf.var_poly())
    reduce_unit = place.residue_data().reduce_unit
    with pytest.raises(NotRegularAtPlace):
        reduce_unit(rf.t_unit())


def test_support_places_skip_the_irreducibility_test(monkeypatch):
    import mwk.fields as fields_mod
    from mwk.exprtext import parse_expr

    F5 = ff_build(5, 1)
    rf = rat_func_field(F5)
    expr = parse_expr("[(t^7+t+1)*(t^2+2), t^3+t+1] - [t, (t^2+1)^-1]", rf)
    calls = []
    test = fields_mod._is_irreducible
    monkeypatch.setattr(
        fields_mod, "_is_irreducible", lambda *args: calls.append(args) or test(*args)
    )
    places = expr.support_places()
    assert calls == []
    assert places == [Place(rf, p) for p in (pl.poly for pl in places)]
    assert len(places) == 6  # t^2+1 = (t+2)(t+3) over F_5
    calls.clear()
    with pytest.raises(NotRegularAtPlace):
        Place(rf, Poly.make(F5, [1, 0, 1]))
    assert calls


def test_places_are_interned_and_own_what_is_built_for_them(monkeypatch):
    import mwk.fields as fields_mod
    from mwk.valuation import valuation_context

    calls = []
    test = fields_mod._is_irreducible
    monkeypatch.setattr(
        fields_mod, "_is_irreducible", lambda *args: calls.append(args) or test(*args)
    )
    for q in (3, 25):
        rf = rat_func_field(ff_build_q(q))
        F = rf.base
        monkeypatch.setattr(rf, "_places", {})  # every place below is built here
        polys = (rf.var_poly(), first_monic_irreducible(F, 2), None)
        owned = set()
        for poly in polys:
            calls.clear()
            place = Place(rf, poly)
            assert Place(rf, poly) is place and Place._known(rf, poly) is place
            assert len(calls) == (poly is not None), (q, poly)  # Rabin's test, once
            data, ctx = place.residue_data(), valuation_context(place)
            assert place.residue_data() is data and valuation_context(place) is ctx
            assert data.place is place and ctx.place is place
            owned.update((id(data), id(ctx)))
            assert repr(place) == f"Place(rf={rf!r}, poly={poly!r})"
            for name in ("rf", "poly"):
                with pytest.raises(AttributeError):
                    setattr(place, name, None)
                with pytest.raises(AttributeError):
                    delattr(place, name)
            assert place.rf is rf and place.poly is poly
        assert len(owned) == 2 * len(polys)
        square = Poly(F, (0, 0, 1))  # t^2: monic and reducible
        for _ in range(2):
            calls.clear()
            with pytest.raises(NotRegularAtPlace):
                Place(rf, square)
            assert len(calls) == 1
        assert list(rf._places) == list(polys)


def test_infinity_place_reduction():
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    inf = Place(rf, None)
    data = inf.residue_data()
    kappa, reduce_unit = data.kappa, data.reduce_unit
    assert kappa is F3
    # (2t^2 + ...)/(t^2 + ...) has valuation 0 at infinity; reduces to the
    # ratio of leading coefficients
    u = rf.from_fraction(Poly.make(F3, [1, 1, 2]), Poly.make(F3, [2, 0, 1]))
    assert u.valuation(inf) == 0
    assert reduce_unit(u).value == 2
    assert rf.t_unit().valuation(inf) == -1
    assert inf.uniformizer().valuation(inf) == 1


def test_monic_irreducibles_counts():
    # numbers of monic irreducibles over F_3: 3 of degree 1, 3 of degree 2, 8 of degree 3
    F3 = ff_build(3, 1)
    assert len(monic_irreducibles(F3, 1)) == 3
    assert len(monic_irreducibles(F3, 2)) == 3
    assert len(monic_irreducibles(F3, 3)) == 8
    assert all(is_irreducible(p) for p in monic_irreducibles(F3, 3))


def test_first_monic_irreducible_is_the_first_of_the_list():
    for q, deg in ((3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (9, 2)):
        field = ff_build_q(q)
        assert first_monic_irreducible(field, deg) == monic_irreducibles(field, deg)[0]
    # over F_25 the cubic is found without listing all 15625 candidates
    from mwk.exprtext import format_poly

    F25 = ff_build_q(25)
    assert format_poly(first_monic_irreducible(F25, 3)) == "t^3+6"
    assert 3 not in F25._irreducibles


def test_poly_make_reduces_prime_field_coefficients():
    F3 = ff_build(3, 1)
    f = Poly.make(F3, [5, 1])
    assert f.coeffs == (2, 1)
    assert Poly.make(F3, [-1, 3]).coeffs == (2,)
    assert f.mul(f).coeffs == (1, 1, 1)
    rf = rat_func_field(F3)
    assert rf.from_poly(f) == rf.from_poly(Poly.make(F3, [2, 1]))


def test_poly_make_rejects_out_of_range_extension_encodings():
    F9 = ff_build(3, 2)
    assert Poly.make(F9, [8, 1, 0]).coeffs == (8, 1)
    for bad in ([9, 1], [-1, 1]):
        with pytest.raises(FieldMismatch):
            Poly.make(F9, bad)


# ---------------------------------------------------------------------------
# trial division: the reference for factoring and irreducibility
# ---------------------------------------------------------------------------


def monic_polys(field, deg):
    """Every monic polynomial of the given degree, in `monic_irreducibles`
    order (the highest non-leading coefficient varies slowest)."""
    for digits in itertools.product(range(field.q), repeat=deg):
        yield Poly(field, tuple(reversed(digits)) + (1,))


def trial_division_is_irreducible(f):
    """No monic irreducible of degree at most half of deg f divides f."""
    return f.degree >= 1 and all(
        not f.mod(g).is_zero()
        for k in range(1, f.degree // 2 + 1)
        for g in trial_division_irreducibles(f.field, k)
    )


@functools.cache
def trial_division_irreducibles(field, deg):
    return [f for f in monic_polys(field, deg) if trial_division_is_irreducible(f)]


def trial_division_factor(f):
    """(leading coefficient, {monic irreducible: multiplicity}) by dividing
    out the monic irreducibles of degree 1, 2, ... in turn."""
    rem = f.monic()
    out = {}
    k = 1
    while rem.degree >= 2 * k:
        for g in trial_division_irreducibles(f.field, k):
            quo, r = rem.divmod(g)
            while r.is_zero():
                out[g] = out.get(g, 0) + 1
                rem = quo
                quo, r = rem.divmod(g)
        k += 1
    if rem.degree >= 1:
        out[rem] = out.get(rem, 0) + 1
    return f.lead(), out


def assert_factoring_agrees(f):
    lead, fac = poly_factor(f)
    ref_lead, ref = trial_division_factor(f)
    assert lead.value == ref_lead
    assert list(fac.items()) == list(ref.items()), f  # same factors, same order
    assert is_irreducible(f) == (list(ref.values()) == [1])


def test_factoring_agrees_with_trial_division_up_to_degree_4():
    for q in (3, 5, 9):
        field = ff_build_q(q)
        for deg in range(1, 5):
            for f in monic_polys(field, deg):
                assert_factoring_agrees(f)


def test_factoring_agrees_with_trial_division_on_seeded_products():
    # products of seeded irreducibles (trial division lists them), with
    # multiplicities up to p + 1 so that p-th powers go through the
    # square-free split, up to the degree cap
    rng = random.Random(7)
    for q, max_factor_degree in ((5, 7), (25, 4)):
        field = ff_build_q(q)
        for _ in range(100):
            lead = rng.randrange(1, q)
            f = Poly.const(field, lead)
            expected = {}
            target = rng.randint(1, 12)
            while f.degree < target:
                deg = rng.randint(1, min(max_factor_degree, target - f.degree))
                e = rng.choice((1, 1, 1, 2, 3, field.p, field.p + 1))
                e = min(e, (target - f.degree) // deg)
                g = Poly(field, tuple(rng.randrange(q) for _ in range(deg)) + (1,))
                while not trial_division_is_irreducible(g):
                    g = Poly(field, tuple(rng.randrange(q) for _ in range(deg)) + (1,))
                expected[g] = expected.get(g, 0) + e
                for _ in range(e):
                    f = f.mul(g)
            lead_unit, fac = poly_factor(f)
            assert lead_unit.value == lead
            order = sorted(expected, key=lambda g: (g.degree, g.coeffs[::-1]))
            assert list(fac.items()) == [(g, expected[g]) for g in order], f
            assert is_irreducible(f) == (list(expected.values()) == [1])


def fixed_width_digits(F, a):
    """The d base-p digits of an encoding of F_{p^d}, low to high."""
    return [a // F.p**i % F.p for i in range(F.d)]


def from_digits(F, digits):
    """The encoding with the given base-p digits, each reduced mod p."""
    return sum(c % F.p * F.p**i for i, c in enumerate(digits))


def test_zech_addition_matches_digit_addition():
    for q in (9, 25, 27):
        F = ff_build_q(q)
        for a in range(q):
            assert F.neg(a) == from_digits(F, [-c for c in fixed_width_digits(F, a)])
            for b in range(q):
                assert F.add(a, b) == from_digits(
                    F, [x + y for x, y in zip(fixed_width_digits(F, a), fixed_width_digits(F, b))]
                )


# per place P of degree 2 and 3 (the first and last monic irreducible) over
# F_3, F_5 and F_9: the generator of F_q[t]/(P) and the exponent of each unit's
# reduction, as the residue fields with discrete logarithms gave them; units
# that are not local at P are left out
RESIDUE_EXPONENTS = {
    (3, "t^2+1"): (4, [("t", 6), ("t+1", 1), ("2", 4), ("(t^4+t+1)*(t+2)^-3", 2)]),
    (3, "t^2+2*t+2"): (3, [("t", 1), ("t+1", 2), ("2", 4), ("(t^4+t+1)*(t+2)^-3", 4)]),
    (3, "t^3+2*t+1"): (3, [("t", 1), ("t+1", 9), ("2", 13), ("(t^4+t+1)*(t+2)^-3", 12)]),
    (3, "t^3+2*t^2+2*t+2"): (4, [("t", 4), ("t+1", 1), ("2", 13), ("(t^4+t+1)*(t+2)^-3", 6)]),
    (5, "t^2+2"): (6, [("t", 3), ("t+1", 1), ("2", 18), ("(t^4+t+1)*(t+2)^-3", 3)]),
    (5, "t^2+4*t+2"): (5, [("t", 1), ("t+1", 22), ("2", 6), ("(t^4+t+1)*(t+2)^-3", 19)]),
    (5, "t^3+t+1"): (9, [("t", 66), ("t+1", 12), ("2", 31), ("(t^4+t+1)*(t+2)^-3", 45)]),
    (5, "t^3+4*t^2+4*t+4"): (6, [("t", 24), ("t+1", 1), ("2", 31), ("(t^4+t+1)*(t+2)^-3", 64)]),
    (9, "t^2+4"): (10, [("t", 15), ("t+1", 1), ("4", 70), ("(t^4+t+1)*(t+2)^-3", 66)]),
    (9, "t^2+8*t+5"): (9, [("t", 1), ("t+1", 77), ("4", 70), ("(t^4+t+1)*(t+2)^-3", 17)]),
    (9, "t^3+t+3"): (10, [("t", 322), ("t+1", 1), ("4", 455), ("(t^4+t+1)*(t+2)^-3", 628)]),
    (9, "t^3+8*t^2+8*t+5"): (
        9,
        [("t", 1), ("t+1", 215), ("4", 273), ("(t^4+t+1)*(t+2)^-3", 427)],
    ),
}


def test_residue_field_units_match_generator_powers():
    from mwk.exprtext import format_poly, parse_unit

    seen = set()
    for q in (3, 5, 9):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        for k in (2, 3):
            polys = monic_irreducibles(F, k)
            for poly in (polys[0], polys[-1]):
                generator, exponents = RESIDUE_EXPONENTS[(q, format_poly(poly))]
                data = Place(rf, poly).residue_data()
                kappa, reduce_unit = data.kappa, data.reduce_unit
                assert isinstance(kappa, QuotientField) and kappa.q == q**k
                assert brute_order(kappa, generator) == kappa.q - 1
                for text, n in exponents:
                    u = parse_unit(text, rf)
                    assert reduce_unit(u).value == kappa.pow(generator, n), (q, poly, text)
                seen.add((q, format_poly(poly)))
    assert seen == set(RESIDUE_EXPONENTS)


def assert_power_table_matches_pow(kappa):
    """The powers of the smallest full-order encoding run through every unit
    once, and pow, inv and the square class agree with that table."""
    g = next(a for a in range(2, kappa.q) if brute_order(kappa, a) == kappa.q - 1)
    table, x = {}, 1
    for n in range(kappa.q - 1):
        table[x] = n
        x = kappa.mul(x, g)
    assert len(table) == kappa.q - 1 and x == 1
    for value, n in table.items():
        assert kappa.pow(g, n) == value
        assert kappa.inv(value) == kappa.pow(g, -n)
        assert kappa.unit(value).is_square() == (n % 2 == 0)


# The next two tests keep the names they had when residue fields took
# discrete logarithms; they now check the power table those logarithms read.
def test_residue_field_log_matches_power_table():
    for q, k in ((3, 2), (5, 2), (3, 3), (9, 2)):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        for poly in monic_irreducibles(F, k):
            data = Place(rf, poly).residue_data()
            kappa, reduce_unit = data.kappa, data.reduce_unit
            assert isinstance(kappa, QuotientField) and kappa.q == q**k
            assert_power_table_matches_pow(kappa)
            # t reduces to the class of t, encoded as q
            assert reduce_unit(rf.t_unit()).value == q


def test_residue_field_log_digit_by_digit(monkeypatch):
    # with the bound at 3, 3^4 - 1 = 16 * 5 has a 2-part beyond the bound's
    # square; residue fields take no logarithm, so they build under it
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    monkeypatch.setenv("MWK_SIZE_BOUND", "3")
    for poly in monic_irreducibles(F3, 4):
        data = Place(rf, poly).residue_data()
        kappa, reduce_unit = data.kappa, data.reduce_unit
        assert kappa.q == 81
        assert_power_table_matches_pow(kappa)
        assert reduce_unit(rf.t_unit()).value == 3


def test_equal_units_are_one_object():
    """Units are interned per field: every route to a value returns the same
    object, and units of different fields stay distinct and unequal even
    where their encodings or constants agree."""
    rng = random.Random(15)
    for rf in (rat_func_field(ff_build(3, 1)), rat_func_field(ff_build(5, 2))):
        F = rf.base
        for _ in range(30):
            polys = []
            while len(polys) < 3:
                f = Poly.make(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))])
                if not f.is_zero():
                    polys.append(f)
            f, g, h = polys
            u = rf.from_fraction(f.mul(g), h)
            v = rf.from_poly(h).inv().mul(rf.from_poly(g)).mul(rf.from_poly(f))
            assert u is v and RatFuncUnit(rf, u.const, u.factors) is u
            assert u.mul(rf.t_unit()) is not u and u.mul(u.inv()) is rf.one_unit()
    F9 = ff_build(3, 2)
    F3 = rat_func_field(ff_build(3, 1))
    kappa = Place(F3, first_monic_irreducible(F3.base, 2)).residue_data().kappa
    for K in (F9, kappa):
        for a in range(1, K.q):
            x = K.unit(a)
            assert x is K.unit(a) is FFUnit(K, a) and x is not FFUnit(F9 if K is kappa else kappa, a)
            assert x.mul(x) is K.unit(K.mul(a, a)) and x.pow(3) is x.mul(x).mul(x)
            assert x.inv().mul(x) is K.one_unit() and x.negate() is K.unit(K.neg(a))
    assert [u.value for u in F9.units()] == F9._exp and F9.units()[3] is F9.unit_exp(3)
    # units over F_3 and F_9, and constants of 3(t) and 9(t), share encodings
    assert ff_build(3, 1).unit(2) not in (F9.unit(2), F3.constant(2))
    assert F3.constant(2) != rat_func_field(F9).constant(2)
    assert repr(F9.unit(5)) == "FFUnit(field=F_9, value=5)"
    assert repr(F3.t_unit()) == (
        "RatFuncUnit(rf=F_3(t), const=1, factors=((Poly(field=F_3, coeffs=(0, 1)), 1),))"
    )


def test_unit_tables_hold_only_live_units():
    """The weak intern tables of F_q(t) and of a residue field drop a unit
    with its last holder, and a unit built again after that is the same as a
    copy built while it is held.  A tabled field F_q keeps its units, at most
    q - 1 of them."""
    rf = rat_func_field(ff_build(5, 1))
    table = rf._unit_table
    held = rf.from_poly(Poly.make(rf.base, [1, 1])).mul(rf.t_unit().pow(3))
    terms = {held: 1}
    start = len(table)
    for k in range(1000):
        rf.t_unit().pow(k + 7).mul(held).negate()
    gc.collect()
    assert len(table) <= start + 3
    data = rf.t_unit().pow(1234).negate()
    const, factors = data.const, data.factors
    del data
    gc.collect()
    again = rf.t_unit().pow(-1234).inv().negate()
    copy = RatFuncUnit(rf, const, factors)
    assert again is copy and again == copy and hash(again) == hash(copy)
    assert terms[rf.t_unit().pow(3).mul(rf.from_poly(Poly.make(rf.base, [1, 1])))] == 1
    kappa = Place(rf, first_monic_irreducible(rf.base, 3)).residue_data().kappa
    start = len(kappa._unit_table)
    for a in range(1, kappa.q):
        kappa.unit(a).pow(7).inv()
    gc.collect()
    assert len(kappa._unit_table) <= start + 3
    F = ff_build(5, 2)
    for a in range(1, F.q):
        F.unit(a).pow(7).inv()
    assert len(F._unit_table) <= F.q - 1


def test_units_are_read_only():
    """An interned unit is shared by every holder, so no write may change it."""
    F = ff_build(3, 2)
    rf = rat_func_field(F)
    u, w = F.unit(4), rf.t_unit()
    writes = (
        lambda: setattr(u, "value", 2),
        lambda: setattr(u, "field", ff_build(3, 1)),
        lambda: setattr(w, "const", 2),
        lambda: setattr(w, "factors", ()),
        lambda: delattr(w, "rf"),
        lambda: setattr(w, "_hash", 0),
    )
    for write in writes:
        with pytest.raises(AttributeError):
            write()
    assert (u.field, u.value) == (F, 4) and w is rf.t_unit() and w.const == 1


def test_negate_changes_only_the_sign_of_the_constant():
    """RatFuncUnit.negate against the route through mul(minus_one()), kept
    here as the reference: equal units, the same factors and equal hashes."""
    from mwk.symbols import unit_sampler

    rng = random.Random(27)
    for rf in (rat_func_field(ff_build(3, 1)), rat_func_field(ff_build(5, 2))):
        sample = unit_sampler(rf, rng)
        fixed = [rf.one_unit(), rf.minus_one(), rf.t_unit(), rf.t_unit().inv()]
        for u in fixed + [sample() for _ in range(60)]:
            want, got = u.mul(rf.minus_one()), u.negate()
            assert got == want and got.factors == want.factors, u
            assert hash(got) == hash(want)
            assert got.negate() == u


def test_polynomial_algorithms_over_residue_fields_raise_field_mismatch():
    F5 = ff_build(5, 1)
    rf = rat_func_field(F5)
    kappa = Place(rf, first_monic_irreducible(F5, 2)).residue_data().kappa
    f, g = Poly.make(kappa, [1, 0, 1, 0, 1]), Poly.make(kappa, [2, 1])
    calls = (
        lambda: poly_factor(f),
        lambda: is_irreducible(f),
        lambda: first_monic_irreducible(kappa, 2),
        lambda: monic_irreducibles(kappa, 2),
        lambda: rat_func_field(kappa).from_poly(f),
        # the kernels read the tables first, so inputs they would return at
        # once stop as well
        lambda: f.mul(f),
        lambda: f.mul(Poly.zero(kappa)),
        lambda: f.divmod(g),
        lambda: g.divmod(f),
        lambda: f.pow(2),
    )
    for call in calls:
        with pytest.raises(FieldMismatch):
            call()


def test_fraction_expansion_checks_the_cap_before_multiplying(monkeypatch):
    F3 = ff_build(3, 1)
    rf = rat_func_field(F3)
    t, t1, t2 = Poly.var(F3), Poly.make(F3, [1, 1]), Poly.make(F3, [2, 1])
    at_cap = rf.from_poly(t1.mul(t2)).pow(18).mul(rf.t_unit().pow(-36))
    num, den = at_cap.to_fraction()
    assert (num, den) == (t1.pow(18).mul(t2.pow(18)), t.pow(36))
    assert num.pow(2) == num.mul(num) and t1.pow(1) == t1
    calls = []
    mul = Poly.mul
    monkeypatch.setattr(Poly, "mul", lambda a, b: calls.append(1) or mul(a, b))
    for u in (at_cap.mul(rf.from_poly(t1)), at_cap.mul(rf.t_unit().inv())):
        with pytest.raises(DegreeBound, match="fraction expansion exceeds the degree cap"):
            u.to_fraction()
    assert not calls


def test_reduce_unit_inverts_once_and_agrees_with_the_factor_by_factor_reduction(monkeypatch):
    inversions = []
    inv = QuotientField.inv
    monkeypatch.setattr(QuotientField, "inv", lambda kappa, a: inversions.append(a) or inv(kappa, a))
    rng = random.Random(21)
    for q in (3, 25):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        data = Place(rf, first_monic_irreducible(F, 2)).residue_data()
        kappa = data.kappa
        pool = [f for f in (Poly.make(F, [rng.randrange(q) for _ in range(k)] + [1])
                            for k in (1, 1, 2, 2, 3, 3)) if not f.mod(data.place.poly).is_zero()]
        with_negative = inverted = 0
        for _ in range(40):
            u = rf.constant(rng.randrange(1, q))
            for f in rng.sample(pool, 3):
                u = u.mul(rf.from_poly(f).pow(rng.choice([-3, -2, -1, 1, 2])))
            want = u.const  # one power, and so one inversion, per negative factor
            for poly, e in u.factors:
                want = kappa.mul(want, kappa.pow(data._image(poly), e))
            inversions.clear()
            assert data.reduce_unit(u).value == want, (q, u)
            # none when the negative factors reduce to 1
            assert len(inversions) <= any(e < 0 for _, e in u.factors)
            inverted += len(inversions)
            with_negative += sum(e < 0 for _, e in u.factors) > 1
        assert with_negative >= 10 and inverted >= 10


# -- the square class of a residue field by reciprocity -----------------------


def euler_is_square(kappa, value):
    """The reference: Euler's criterion u^((q-1)/2) = 1."""
    return kappa.pow(value, (kappa.q - 1) // 2) == 1


def assert_square_classes_match_euler(rf, poly, values):
    kappa = Place(rf, poly).residue_data().kappa
    for value in values:
        assert kappa.unit(value).is_square() == euler_is_square(kappa, value), (kappa, poly, value)


def test_residue_square_classes_by_reciprocity_match_eulers_criterion():
    # q = 3 and 7 are 3 mod 4, where the reciprocity swap carries a sign
    for q, k_max in ((3, 3), (5, 3), (7, 2), (9, 2)):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        for k in range(1, k_max + 1):
            for poly in monic_irreducibles(F, k):
                assert_square_classes_match_euler(rf, poly, range(1, q**k))
    rng = random.Random(20)
    F25 = ff_build_q(25)
    rf25 = rat_func_field(F25)
    for k in (2, 3):
        for _ in range(3):
            poly = Poly.make(F25, [rng.randrange(25) for _ in range(k)] + [1])
            while not is_irreducible(poly):
                poly = Poly.make(F25, [rng.randrange(25) for _ in range(k)] + [1])
            values = [rng.randrange(1, 25**k) for _ in range(150)]
            assert_square_classes_match_euler(rf25, poly, values)


# -- the polynomial kernels against the field's own add and mul ---------------


def ref_mul(F, a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_axpy(F, a, b, c):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = F.add(out[i], F.mul(c, y))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_divmod(F, a, b):
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = F.inv(b[-1])
    while len(rem) >= len(b):
        c = F.mul(rem[-1], inv_lead)
        shift = len(rem) - len(b)
        quo[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = F.sub(rem[shift + j], F.mul(c, y))
        assert rem.pop() == 0
        while rem and rem[-1] == 0:
            rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return tuple(quo), tuple(rem)


def test_polynomial_kernels_match_the_fields_own_arithmetic():
    """Plain ints over F_p, discrete logs over F_{p^d}: the multiply, the
    division by a divisor that is not monic in general, its remainder alone
    (`_rem`), and `_mulmod`; and the linear kernel `_axpy` under sums,
    differences, negation and scaling."""
    from mwk.fields import _axpy, _kernel_modulus, _mulmod, _rem

    rng = random.Random(21)
    linear = random.Random(34)  # its own stream: the draws above stay as they were
    for q in (3, 5, 7, 11, 9, 25, 27, 49):
        F = ff_build_q(q)

        def poly(deg, monic=False):
            return [rng.randrange(q) for _ in range(deg)] + [1 if monic else rng.randrange(1, q)]

        for da in range(7):
            for db in range(7):
                for _ in range(4):
                    a, b = poly(da), poly(db)
                    assert Poly(F, tuple(a)).mul(Poly(F, tuple(b))).coeffs == ref_mul(F, a, b)
                    # b is not monic in general
                    quo, rem = Poly(F, tuple(a)).divmod(Poly(F, tuple(b)))
                    assert (quo.coeffs, rem.coeffs) == ref_divmod(F, a, b), (q, a, b)
                    assert _rem(F, tuple(a), tuple(b)) == rem.coeffs, (q, a, b)
                    if db >= 1:
                        m = poly(db, monic=True)
                        want = ref_divmod(F, ref_mul(F, a, b), m)[1]
                        got = _mulmod(F, tuple(a), tuple(b), _kernel_modulus(F, tuple(m)))
                        assert got == want, (q, a, b, m)
                    pa, pb, c = Poly(F, tuple(a)), Poly(F, tuple(b)), linear.randrange(q)
                    minus_one = F.neg(1)
                    assert pa.add(pb).coeffs == ref_axpy(F, a, b, 1), (q, a, b)
                    assert pa.sub(pb).coeffs == ref_axpy(F, a, b, minus_one), (q, a, b)
                    assert pb.neg().coeffs == ref_axpy(F, (), b, minus_one), (q, b)
                    for k in (0, 1, c):
                        assert pb.scale(k).coeffs == ref_axpy(F, (), b, k), (q, b, k)
                    assert _axpy(F, tuple(a), tuple(b), c) == ref_axpy(F, a, b, c), (q, a, b, c)
                    # differences that cancel: all of it, and the top digits of a longer a
                    assert pa.sub(pa).coeffs == () and _axpy(F, tuple(b), tuple(b), minus_one) == ()
                    assert pa.add(pb).sub(pa) == pb and pb.add(pa).sub(pa) == pb, (q, a, b)
        assert Poly(F, (1, 2)).mul(Poly.zero(F)).is_zero()
        assert _mulmod(F, (), (1, 1), _kernel_modulus(F, (0, 1))) == ()
    F5 = ff_build(5, 1)
    rf = rat_func_field(F5)
    kappa = Place(rf, first_monic_irreducible(F5, 2)).residue_data().kappa
    for coeffs in ([1, 0, 1], [2, 1, 0, 1]):
        f = Poly.make(kappa, coeffs)
        with pytest.raises(FieldMismatch):
            poly_factor(f)
        with pytest.raises(FieldMismatch):
            is_irreducible(f)


def test_mulmod_matches_the_remainder_of_the_product(monkeypatch):
    """`_mulmod` reduces the product in the kernels' own representation.  It
    agrees with the remainder of the product by the two kernels one after
    the other, and with the field's own add and mul (which share no loop
    with the kernels), for a monic m of degree 1-5 and any a, b: zero,
    shorter or longer than m, and products that cancel under Zech addition.
    kappa's multiply and power prepare no modulus: P is prepared once, when
    kappa is built."""
    from mwk import fields
    from mwk.fields import _divmod, _kernel_modulus, _mul, _mulmod

    rng = random.Random(28)
    for q in (3, 5, 9, 25, 27, 49):
        F = ff_build_q(q)

        def poly(deg):
            if deg < 0:
                return ()
            return tuple([rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])

        for dm in range(1, 6):
            for _ in range(12):
                m = tuple([rng.randrange(q) for _ in range(dm)] + [1])
                a, b = poly(rng.randrange(-1, dm + 3)), poly(rng.randrange(-1, dm + 3))
                want = _divmod(F, _mul(F, a, b), m)[1]
                assert want == ref_divmod(F, ref_mul(F, a, b), m)[1], (q, a, b, m)
                assert _mulmod(F, a, b, _kernel_modulus(F, m)) == want, (q, a, b, m)
    # kappa = F_q[t]/(P) multiplies and powers through `_mulmod`, with P
    # prepared once, when kappa is built
    prepared = []
    monkeypatch.setattr(fields, "_kernel_modulus", lambda F, m: prepared.append(m) or _kernel_modulus(F, m))
    for q in (5, 9, 25):
        F = ff_build_q(q)
        rf = rat_func_field(F)
        for k in (2, 3):
            P = monic_irreducibles(F, k)[-1].coeffs
            kappa = Place(rf, Poly(F, P)).residue_data().kappa

            def ref_kappa_mul(x, y):
                prod = ref_mul(F, kappa._decode(x), kappa._decode(y))
                return kappa._encode(ref_divmod(F, prod, P)[1])

            for _ in range(40):
                prepared.clear()
                x, y = rng.randrange(kappa.q), rng.randrange(kappa.q)
                assert kappa.mul(x, y) == ref_kappa_mul(x, y), (q, P, x, y)
                e = rng.randrange(2 * kappa.q)
                want, square, n = 1, x, e % (kappa.q - 1) if x else e
                while n:
                    if n & 1:
                        want = ref_kappa_mul(want, square)
                    square, n = ref_kappa_mul(square, square), n >> 1
                assert kappa.pow(x, e) == want, (q, P, x, e)
                assert prepared == [], (q, P, x, y, e)
                if x:
                    assert kappa.mul(kappa.pow(x, -e), want) == 1


def test_powmod_chain_matches_mulmod_per_bit_and_the_fields_own_pow():
    """`_powmod` runs its square-and-multiply chain in the kernels' own
    representation.  It agrees with the chain of `_mulmod` per bit, with the
    same chain through the field's own add and mul, and with the field's own
    pow: at m = t - c through the value at c, and at m = the field's modulus
    through the encoding of the power."""
    from mwk.fields import _kernel_modulus, _mulmod, _powmod

    def chain(mulmod, a, e, m):
        result = (1,)
        while e:
            if e & 1:
                result = mulmod(result, a, m)
            e >>= 1
            if e:
                a = mulmod(a, a, m)
        return result

    rng = random.Random(30)
    for q in (3, 5, 9, 25, 27, 49):
        F = ff_build_q(q)

        def poly(deg):
            if deg < 0:
                return ()
            return tuple([rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])

        def ref_mulmod(a, b, m):
            return ref_divmod(F, ref_mul(F, a, b), m)[1]

        for dm in range(1, 6):
            for _ in range(4):
                m = tuple([rng.randrange(q) for _ in range(dm)] + [1])
                prepared = _kernel_modulus(F, m)
                for e in (0, 1, 2, q, q * q, (q**dm - 1) // 2):
                    a = poly(rng.randrange(-1, dm + 2))
                    got = _powmod(F, a, e, prepared)
                    assert got == chain(lambda x, y, _: _mulmod(F, x, y, prepared), a, e, m), (q, a, e, m)
                    assert got == chain(ref_mulmod, a, e, m), (q, a, e, m)
                    if dm == 1:  # m = t - c
                        v = F.pow(Poly(F, a).evaluate(F.neg(m[0])), e)
                        assert got == ((v,) if v else ()), (q, a, e, m)
        if F.d > 1:
            base = F.base
            for x in range(q):
                for e in (0, 1, 2, q, (q - 1) // 2):
                    want = F._decode(F.pow(x, e))
                    assert _powmod(base, F._decode(x), e, _kernel_modulus(base, F.modulus)) == want, (q, x, e)
    # the chain reads the tables first, so it stops over kappa on every input
    F5 = ff_build(5, 1)
    rf = rat_func_field(F5)
    kappa = Place(rf, first_monic_irreducible(F5, 2)).residue_data().kappa
    with pytest.raises(FieldMismatch):
        _kernel_modulus(kappa, (1, 0, 1))
    for a, e in (((1, 1), 5), ((2,), 1), ((), 3), ((1,), 0)):
        with pytest.raises(FieldMismatch):
            _powmod(kappa, a, e, _kernel_modulus(F5, (1, 0, 1)))


def poly_euclid_inverse(kappa, a):
    """The inverse in kappa = F_q[t]/(P) by extended Euclid on Polys."""
    base = kappa.base
    r0, r1 = Poly(base, kappa.modulus), Poly(base, kappa._decode(a))
    s0, s1 = Poly.zero(base), Poly.const(base, 1)
    while r1.degree > 0:
        quo, rem = r0.divmod(r1)
        r0, r1, s0, s1 = r1, rem, s1, s0.sub(quo.mul(s1))
    return kappa._encode(s1.scale(base.inv(r1.lead())).coeffs)


@pytest.mark.parametrize("q, k", [(5, 2), (5, 3), (9, 2), (9, 3), (25, 2)])
def test_residue_field_inverse_matches_the_poly_euclid(q, k):
    """`QuotientField.inv` runs extended Euclid on coefficient tuples; it
    agrees with the same algorithm on Polys for every unit of kappa at the
    first place of degree k."""
    F = ff_build_q(q)
    rf = rat_func_field(F)
    kappa = Place(rf, first_monic_irreducible(F, k)).residue_data().kappa
    for a in range(1, kappa.q):
        inv = kappa.inv(a)
        assert inv == poly_euclid_inverse(kappa, a), (q, k, a)
        assert kappa.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        kappa.inv(0)


@pytest.mark.parametrize("q", [3, 25])
def test_poly_pow_zero_is_the_constant_one(q):
    F = ff_build_q(q)
    for coeffs in ((), (2,), (1, 1), (0, 2, 1)):
        f = Poly(F, coeffs)
        assert f.pow(0) == Poly(F, (1,)) and f.pow(0).is_one()
        assert f.pow(1) == f and f.pow(3) == f.mul(f).mul(f)


def test_poly_is_a_read_only_tuple_that_hashes_by_value():
    """A Poly hashes as the tuple (field, coeffs), so dict and set orders are
    those of the tuple hash; equal coefficients over different fields are
    different polynomials."""
    F3, F9 = ff_build(3, 1), ff_build(3, 2)
    p3, p9 = Poly(F3, (1, 2, 1)), Poly(F9, (1, 2, 1))
    for p in (p3, p9, Poly.zero(F9), Poly.var(F3)):
        assert hash(p) == hash((p.field, p.coeffs))
        assert p == Poly(p.field, tuple(p.coeffs)) and hash(p) == hash(Poly(p.field, p.coeffs))
    assert p3 != p9 and p3.coeffs == p9.coeffs
    table = {p3: "F_3", p9: "F_9"}
    assert len(table) == 2 and table[Poly.make(F3, [1, 2, 1])] == "F_3"
    assert table[Poly.make(F9, [1, 2, 1])] == "F_9"
    assert repr(p3) == "Poly(field=F_3, coeffs=(1, 2, 1))"
    assert repr(Poly.zero(F9)) == "Poly(field=F_9, coeffs=())"
    for write in (
        lambda: setattr(p3, "coeffs", (1,)),
        lambda: setattr(p3, "field", F9),
        lambda: delattr(p9, "coeffs"),
    ):
        with pytest.raises(AttributeError):
            write()
    assert p3.coeffs == (1, 2, 1) and p3.field is F3


# -- one factoring per polynomial ---------------------------------------------


def fresh_factoring(f):
    lead, factors = poly_factor(f)
    return lead.value, factors


def test_from_poly_remembers_each_polynomial(monkeypatch):
    from mwk import fields

    F = ff_build(5, 1)
    rf = fields.RatFuncField(F)
    calls = []
    factor = fields.poly_factor
    monkeypatch.setattr(fields, "poly_factor", lambda f: calls.append(f) or factor(f))
    rng = random.Random(22)
    polys = [Poly.make(F, [rng.randrange(5) for _ in range(4)] + [rng.randrange(1, 5)]) for _ in range(8)]
    first = [rf.from_poly(f) for f in polys]
    assert len(calls) == len(set(polys))
    for f, u in zip(polys, first):
        assert rf.from_poly(f) is u
        assert (u.const, dict(u.factors)) == fresh_factoring(f)
    assert len(calls) == len(set(polys))
    # degree 1 skips the factoring machinery and still gives the monic factor
    lead, factors = poly_factor(Poly.make(F, [3, 2]))
    assert lead.value == 2 and factors == {Poly.make(F, [4, 1]): 1}


def test_from_poly_memo_stops_at_its_cap(monkeypatch):
    from mwk import fields

    monkeypatch.setattr(fields, "FACTOR_MEMO_CAP", 5)
    calls = []
    factor = fields.poly_factor
    monkeypatch.setattr(fields, "poly_factor", lambda f: calls.append(f) or factor(f))
    F = ff_build(3, 1)
    rf = fields.RatFuncField(F)
    polys = [Poly.make(F, list(digits) + [1]) for digits in itertools.product(range(3), repeat=3)]
    for f in polys + polys:
        u = rf.from_poly(f)
        assert u.rf is rf and (u.const, dict(u.factors)) == fresh_factoring(f)
    assert len(rf._factored) == 5
    # the first five are remembered, the rest are factored on every call
    assert calls == polys + polys[5:]


def test_equal_coefficients_over_different_function_fields_give_different_units():
    F5, F25 = ff_build(5, 1), ff_build(5, 2)
    coeffs = (1, 1, 1)  # t^2 + t + 1: irreducible over F_5, split over F_25
    u5 = rat_func_field(F5).from_poly(Poly(F5, coeffs))
    u25 = rat_func_field(F25).from_poly(Poly(F25, coeffs))
    assert u5 != u25
    assert u5.rf.base is F5 and u25.rf.base is F25
    assert [p.degree for p, _ in u5.factors] == [2]
    assert [p.degree for p, _ in u25.factors] == [1, 1]
    assert all(p.field is F25 for p, _ in u25.factors)
