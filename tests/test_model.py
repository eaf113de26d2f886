import random

import pytest

from mwk import model
from mwk.errors import DegreeMismatch, FieldMismatch, Inhomogeneous, SizeBound
from mwk.exprtext import format_expr
from mwk.fields import (
    FiniteField,
    QuotientField,
    ff_build,
    ff_build_q,
    first_monic_irreducible,
    rat_func_field,
)
from mwk.model import (
    INTERN_CAP,
    MEMO_CAP,
    MILNOR,
    MOD2,
    MW,
    WITT,
    THEORIES,
    MWElem,
    _insert_row,
    _Presentation,
    _unpack,
    base_change,
    eval_model,
    finite_abelian_invariants,
    group_structure_model,
    minus_one_power,
    model_elements,
    model_to_sym,
    smith_normal_form,
    snf_oracle,
    theory_elements,
    theory_group_is_trivial,
    theory_torsion_test,
)
from mwk.symbols import SymExpr, relation_generators, unit_sampler

F3 = ff_build(3, 1)
F5 = ff_build(5, 1)
F7 = ff_build(7, 1)
F9 = ff_build(3, 2)


def rand_expr(F, rng, degree, max_terms=2):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        d = rng.randrange(0, 3)
        if degree + d < 0:
            d = -degree
        units = tuple(F.unit_exp(rng.randrange(F.q - 1)) for _ in range(degree + d))
        terms.append(((d, units), rng.randrange(-2, 3) or 1))
    return SymExpr(F, terms)


def test_eval_examples():
    assert eval_model(SymExpr.bracket(F3.one_unit()), 1).is_zero()
    assert eval_model(SymExpr.h_elem(F3).eta_mul(), -1).is_zero()
    v = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    assert v.milnor == 2 and v.witt == (0, 1)


def test_eval_is_ring_homomorphism():
    rng = random.Random(0)
    for F in (F3, F5, F9):
        for _ in range(200):
            dx, dy = rng.choice([-1, 0, 1, 2]), rng.choice([-1, 0, 1, 2])
            x, y = rand_expr(F, rng, dx), rand_expr(F, rng, dy)
            x2 = rand_expr(F, rng, dx)
            assert eval_model(x.add(x2), dx) == eval_model(x, dx).add(eval_model(x2, dx))
            assert eval_model(x.mul(y), dx + dy) == eval_model(x, dx).mul(
                eval_model(y, dy)
            )


def test_eval_inhomogeneous_raises():
    mixed = SymExpr.bracket(F3.unit(2)).add(SymExpr.const(F3, 1))
    with pytest.raises(Inhomogeneous):
        eval_model(mixed, 1)


def test_graded_commutativity_in_model():
    rng = random.Random(1)
    eps = SymExpr.eps_elem(F9)
    for _ in range(200):
        dx, dy = rng.choice([-1, 0, 1, 2]), rng.choice([-1, 0, 1, 2])
        x, y = rand_expr(F9, rng, dx), rand_expr(F9, rng, dy)
        lhs = x.mul(y)
        rhs = y.mul(x)
        if (dx * dy) % 2:
            rhs = eps.mul(rhs)
        assert eval_model(lhs, dx + dy) == eval_model(rhs, dx + dy)


def test_eta_h_kill_each_other():
    rng = random.Random(2)
    h = MWElem.h(F3)
    for _ in range(50):
        d = rng.choice([-1, 0, 1, 2])
        x = eval_model(rand_expr(F3, rng, d), d)
        assert h.mul(x).eta_mul().is_zero()
        assert x.mul(h).eta_mul().is_zero()


def test_eps_squared_is_one():
    for F in (F3, F5, F9):
        assert MWElem.eps(F).mul(MWElem.eps(F)) == MWElem.one(F)


def assert_normal(r):
    n, m, (rank, disc) = r.degree, r.milnor, r.witt
    assert rank in (0, 1) and disc in (0, 1), r
    if n >= 2:
        assert m == 0 and r.witt == (0, 0), r
    elif n == 1:
        # a unit encoding, with its square class (Euler's criterion)
        chi = 0 if r.field.pow(m, (r.field.q - 1) // 2) == 1 else 1
        assert 0 < m < r.field.q and r.witt == (0, chi), r
    elif n == 0:
        assert rank == m % 2, r
    else:
        assert m == 0, r
    # the checked public constructor stores the normal form of its input
    assert r == MWElem(r.field, r.degree, r.milnor, r.witt), r


def test_arithmetic_results_are_in_normal_form():
    # arithmetic skips every check, so its results must already be normal
    for F in (F3, F5, F9):
        by_degree = {d: model_elements(F, d) for d in range(-2, 4)}
        elems = [x for xs in by_degree.values() for x in xs]
        for x in elems:
            assert_normal(x)
            assert_normal(x.neg())
            for c in range(-3, 4):
                assert_normal(x.scale(c))
            for k in range(3):
                assert_normal(x.eta_mul(k))
            for y in by_degree[x.degree]:
                assert_normal(x.add(y))
                assert_normal(x.sub(y))
            for y in elems:
                assert_normal(x.mul(y))
    # the public constructor still rejects what is not a normal form of anything
    with pytest.raises(DegreeMismatch):
        MWElem(F3, 0, 1, (0, 0))  # odd rank, even Witt rank
    with pytest.raises(DegreeMismatch):
        MWElem(F5, 1, 2, (0, 0))  # a nonsquare unit, trivial discriminant
    with pytest.raises(DegreeMismatch):
        MWElem(F5, 1, 0, (1, 1))  # Witt part outside I


def test_memoized_arithmetic_is_the_unmemoized_step_on_interned_values():
    for F in (F3, F5, F9):
        elems = [x for d in range(-2, 3) for x in model_elements(F, d)]
        for x in elems:
            assert x.neg() is x.neg() is x.scale(-1)
            for y in elems:
                pairs = [(x.mul, x._mul)] + [(x.add, x._add)] * (x.degree == y.degree)
                for memoized, step in pairs:
                    first, want = memoized(y), step(y)
                    assert first == want and first is want, (x, y)
                    assert memoized(y) is first  # the hit
                    # interned: the checked constructor finds the same object
                    assert first is MWElem(F, first.degree, first.milnor, first.witt)


def test_independent_paths_build_the_same_object():
    for F in (F3, F5, F9):
        one, m1 = MWElem.one(F), F.minus_one()
        assert one is MWElem(F, 0, 1, (1, 0)) is eval_model(SymExpr.one(F), 0)
        assert MWElem.zero(F, 1) is MWElem(F, 1, 1, (0, 0)) is MWElem.from_unit(F.unit(1))
        b = MWElem.from_unit(m1)
        assert MWElem.zero(F, 3) is b.mul(b).mul(b) is minus_one_power(F, 3)
        assert MWElem.h(F) is one.add(MWElem.angle(m1)) is eval_model(SymExpr.h_elem(F), 0)
        assert MWElem.eps(F) is MWElem.angle(m1).neg()
        assert b is minus_one_power(F, 1) is eval_model(SymExpr.bracket(m1), 1)
        for d in range(-2, 3):
            for x in model_elements(F, d):
                assert x is MWElem(F, d, x.milnor, x.witt)
                assert x is eval_model(model_to_sym(x), d)
                assert x is x.add(MWElem.zero(F, d)) is x.neg().neg()
                assert x is one.mul(x)


def test_tables_stay_under_their_caps_and_answers_stay_right_past_them():
    # a private F_3, so the shared one's table stays below its cap
    F = FiniteField(3, 1, (0, 1))
    one = MWElem.one(F)
    ranks = range(-(INTERN_CAP // 2) - 8, INTERN_CAP // 2 + 8)
    values = [one.scale(r) for r in ranks]
    assert len(F._model_values) == INTERN_CAP
    # past the cap: fresh objects, equal and with equal hashes to what they
    # denote, and sums, products and negations still right
    late = values[-1]
    again = MWElem(F, 0, late.milnor, late.witt)
    assert again is not late and again == late and hash(again) == hash(late)
    assert late._sums is None and late._prods is None
    for r, x in zip(ranks, values):
        assert (x.milnor, x.witt) == (r, (r % 2, (r // 2) % 2))  # -1 is no square mod 3
    two = one.add(one)
    # a partner outside the table is not remembered: once it dies, a new
    # value may get its id
    for r in range(4):
        ghost = one.scale(INTERN_CAP + r)
        assert ghost._sums is None
        assert two.add(ghost).milnor == INTERN_CAP + r + 2
        assert two.mul(ghost).milnor == 2 * (INTERN_CAP + r)
        del ghost
    for r, x in zip(ranks, values):
        assert x.add(two) == two.add(x) == one.scale(r + 2)
        assert x.mul(two) == two.mul(x) == one.scale(2 * r)
        assert x.neg() == one.scale(-r) and x.sub(x) == MWElem.zero(F, 0)
        assert len({x, one.scale(r)}) == 1
    # `two` met more partners than its memos hold
    assert len(two._sums) == len(two._prods) == MEMO_CAP
    assert all(max(len(x._sums), len(x._prods)) <= MEMO_CAP for x in F._model_values.values())
    assert len(F._model_values) == INTERN_CAP


def test_from_unit_keeps_one_value_per_unit(monkeypatch):
    def built(u):
        return model._build(u.field, 1, u.value, 0, model._chi(u))

    rng = random.Random(8)
    kappa = QuotientField(first_monic_irreducible(F5, 3))
    kappa_units = [kappa.unit(rng.randrange(1, kappa.q)) for _ in range(200)]
    for units in (F3.units(), F9.units(), ff_build(5, 2).units(), kappa_units):
        for u in units:
            x = MWElem.from_unit(u)
            assert x == built(u) and MWElem.from_unit(u) is x
    # a private residue field under a small cap: the table stops growing and
    # the values stay right
    monkeypatch.setattr(model, "INTERN_CAP", 4)
    kappa = QuotientField(first_monic_irreducible(F5, 3))
    for v in range(1, 60):
        u = kappa.unit(v)
        assert MWElem.from_unit(u) == built(u) == MWElem.from_unit(u)
    assert len(kappa._unit_values) == 4


def compared_zero(x):
    """The zero test by comparison of parts, the reference for the flag."""
    return x.milnor == (1 if x.degree == 1 else 0) and x.witt == (0, 0)


def test_is_zero_flag_agrees_with_the_comparison(monkeypatch):
    for F in (F3, F5, F9):
        for d in range(-2, 3):
            for x in model_elements(F, d):
                assert x.is_zero() == x.is_zero_in(MW) == compared_zero(x), x
    # values made after a field's intern table is full carry the flag too
    monkeypatch.setattr(model, "INTERN_CAP", 3)
    for shared in (F3, F5, F9):
        F = FiniteField(shared.p, shared.d, shared.modulus)  # a private, empty table
        late = [x for d in range(-2, 3) for x in model_elements(F, d)]
        assert len(F._model_values) == 3
        assert any(x._sums is None for x in late)
        for x in late:
            assert x.is_zero() == x.is_zero_in(MW) == compared_zero(x), x
            assert x.sub(x).is_zero() and MWElem.zero(F, x.degree).is_zero()


def test_memo_hits_do_not_skip_field_and_degree_checks():
    twin = FiniteField(3, 1, (0, 1))  # F_3 again, but a different field object
    for F in (F3, F5):
        one, unit = MWElem.one(F), MWElem.from_unit(F.minus_one())
        # memoize pairs from the right field and degree first
        assert one.add(one) is one.add(one) and one.mul(unit) is one.mul(unit)
        assert one.add(MWElem.zero(F, 0)) is one and unit.add(unit) is unit.add(unit)
        stranger = MWElem.one(twin)
        assert stranger == MWElem(twin, 0, 1, (1, 0)) and stranger != one
        with pytest.raises(FieldMismatch):
            one.add(stranger)
        with pytest.raises(FieldMismatch):
            one.mul(MWElem.from_unit(twin.minus_one()))
        low = MWElem.zero(F, -1)  # the milnor and witt of the degree-0 zero
        with pytest.raises(DegreeMismatch):
            one.add(low)
        same_data = one.scale(unit.milnor)  # the milnor and witt of the unit
        assert (same_data.milnor, same_data.witt) == (unit.milnor, unit.witt)
        with pytest.raises(DegreeMismatch):
            unit.add(same_data)
        # the raising calls stored nothing
        assert id(stranger) not in one._sums and id(low) not in one._sums
        assert id(same_data) not in unit._sums


def test_eta_mul_rejects_negative_powers():
    # eta is no unit of K^MW_*: eta^-1 is undefined, as SymExpr.pow(-1) is
    for x in (MWElem.one(F3), MWElem.from_unit(F5.minus_one()), MWElem.zero(F9, -1)):
        assert x.eta_mul(0) is x
        with pytest.raises(ValueError):
            x.eta_mul(-1)
        with pytest.raises(ValueError):
            x.eta_mul(-3)


def test_public_constructor_canonicalises_witt_pairs():
    # -1 is a nonsquare in F_3, so the pair (r + 2, d) is canonically (r, d + 1)
    x = MWElem.witt_class(F3, -1, (3, 0))
    assert x.witt == (1, 1)
    assert x.add(MWElem.zero(F3, -1)) == x
    assert MWElem(F3, -2, 0, (1, 5)).witt == (1, 1)
    with pytest.raises(DegreeMismatch):
        MWElem(F3, -2, 5, (1, 5))  # a Milnor part in negative degree
    assert MWElem(F3, 1, 1, (2, 1)) == MWElem.zero(F3, 1)
    assert MWElem(F3, 0, 2, (2, 1)).witt == (0, 0)
    assert MWElem(F5, 0, 2, (2, 1)).witt == (0, 1)


def test_public_constructor_rejects_data_the_degree_cannot_hold():
    for args in (
        (-1, 5, (0, 0)),  # a Milnor part in negative degree
        (2, 7, (1, 1)),  # K^M_2(F_q) = 0, and (1, 1) is not even in I
        (2, 0, (0, 1)),  # a nonzero Witt class in I^2 = 0
        (3, 1, (0, 0)),
    ):
        with pytest.raises(DegreeMismatch):
            MWElem(F3, *args)
    assert MWElem(F3, 2, 0, (2, 1)) == MWElem.zero(F3, 2)  # (2, 1) is zero in W(F_3)


def test_compatibility_preserved_by_ops():
    rng = random.Random(3)
    for _ in range(300):
        d1 = rng.choice([-2, -1, 0, 1, 2])
        d2 = rng.choice([-2, -1, 0, 1, 2])
        x = rng.choice(model_elements(F5, d1, rank_window=3))
        y = rng.choice(model_elements(F5, d2, rank_window=3))
        results = [x.mul(y), x.eta_mul(), x.neg()]
        if d1 == d2:
            results.append(x.add(y))
        for r in results:
            assert_normal(r)


def test_torsion_examples():
    y = eval_model(SymExpr.bracket(F3.minus_one()).eta_mul(), 0)
    assert theory_torsion_test(y, "h", MW)
    assert not theory_torsion_test(MWElem.one(F3), "h", MW)
    assert theory_torsion_test(MWElem.zero(F3, 1), "tau", MW, 1)
    nonzero = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    assert not theory_torsion_test(nonzero, "tau", MW, 1)  # tau_1 is the identity action
    with pytest.raises(ValueError):
        theory_torsion_test(nonzero, "tau", MW)


@pytest.mark.parametrize("field", [F3, F9], ids=["3", "9"])
def test_torsion_test_takes_the_kinds_of_the_admissibility_table(field):
    # a delta_ kind is its base kind at odd n and holds at even n
    for theory in THEORIES:
        for degree in range(-2, 3):
            for a in model_elements(field, degree):
                two = a.add(a).is_zero_in(theory)
                assert theory_torsion_test(a, "two", theory) == two
                for n in (1, 2, 3):
                    for kind in ("two", "h"):
                        assert theory_torsion_test(a, "delta_" + kind, theory, n) == (
                            n % 2 == 0 or theory_torsion_test(a, kind, theory, n)
                        ), (theory, degree, n, kind, a)
                with pytest.raises(ValueError):
                    theory_torsion_test(a, "2", theory)


@pytest.mark.parametrize(
    "field", [F3, F5, F7, F9, ff_build_q(25)], ids=["3", "5", "7", "9", "25"]
)
def test_trivial_groups_over_fq_are_the_one_element_groups_of_the_model(field):
    # so a coefficient in a trivial target group is zero by the model's normal
    # form, and the admissibility rule needs no separate test for it
    for theory in (MW, WITT, MILNOR, MOD2):
        for degree in range(-4, 6):
            one_element = len(theory_elements(field, theory, degree)) == 1
            assert theory_group_is_trivial(field, theory, degree) == one_element, (theory, degree)
            if one_element:
                assert all(a.is_zero_in(theory) for a in model_elements(field, degree))


def test_residue_fields_of_degree_two_places_have_no_generator():
    kappa = QuotientField(first_monic_irreducible(F5, 2))
    nonsquare = next(
        kappa.unit(v) for v in range(1, kappa.q) if not kappa.unit(v).is_square()
    )
    with pytest.raises(FieldMismatch):
        model_elements(kappa, 1)
    with pytest.raises(FieldMismatch):
        group_structure_model(kappa, 1)
    with pytest.raises(FieldMismatch):
        model_to_sym(MWElem.angle(nonsquare))


def test_trivial_groups_over_fq_t_start_one_degree_later():
    # K_n(F_q(t)) = K_n(F_q) + sum over places P of K_{n-1}(kappa(P))
    for rf in (rat_func_field(F3), rat_func_field(F5)):
        for theory in (MW, WITT, MILNOR, MOD2):
            zero_below = theory in (MILNOR, MOD2)
            for degree in range(-2, 6):
                want = degree >= 3 or (degree < 0 and zero_below)
                assert theory_group_is_trivial(rf, theory, degree) == want, (theory, degree)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        MWElem.one(F3).add(MWElem.zero(F3, 1))


def test_group_structure_examples():
    assert group_structure_model(F3, 0) == [2, 0]
    assert group_structure_model(F3, 2) == []
    assert group_structure_model(F3, 1) == [2]
    assert group_structure_model(F5, 1) == [4]
    assert group_structure_model(F3, -1) == [4]  # W(F_3) = Z/4
    assert group_structure_model(F5, -1) == [2, 2]  # W(F_5) = Z/2 x Z/2


# format_expr(model_to_sym(e)) for e in model_elements(F, degree), in order:
# the values of the F_q(t) oracle over the base field depend on this choice
SYM_REPRESENTATIVES = {
    (F3, -2): ["0", "eta^3*[2]", "eta^2", "eta^2 + eta^3*[2]"],
    (F3, -1): ["0", "eta^2*[2]", "eta", "eta + eta^2*[2]"],
    (F3, 0): [
        "-2 + eta*[2]", "-2", "-1 + eta*[2]", "-1", "0",
        "eta*[2]", "1", "1 + eta*[2]", "2 + eta*[2]", "2",
    ],
    (F3, 1): ["0", "[2]"],
    (F3, 2): ["0"],
    (F9, -2): ["0", "eta^3*[4]", "eta^2", "eta^2 + eta^3*[4]"],
    (F9, -1): ["0", "eta^2*[4]", "eta", "eta + eta^2*[4]"],
    (F9, 0): [
        "-2", "-2 + eta*[4]", "-1", "-1 + eta*[4]", "0",
        "eta*[4]", "1", "1 + eta*[4]", "2", "2 + eta*[4]",
    ],
    (F9, 1): ["0", "[4]", "[6]", "[7]", "[2]", "[8]", "[3]", "[5]"],
    (F9, 2): ["0"],
}


def test_model_to_sym_roundtrip():
    for F in (F3, F5, F9):
        for deg in (-2, -1, 0, 1, 2):
            for e in model_elements(F, deg, rank_window=2):
                assert eval_model(model_to_sym(e), deg) == e
    for (F, deg), want in SYM_REPRESENTATIVES.items():
        got = [format_expr(model_to_sym(e)) for e in model_elements(F, deg)]
        assert got == want, (F.q, deg)


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]


def test_smith_normal_form_random_vs_determinant():
    # for square nonsingular matrices the product of invariant factors is |det|
    rng = random.Random(5)

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    for _ in range(60):
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        d = abs(det3(m))
        diag = smith_normal_form(m)
        prod = 1
        for v in diag:
            prod *= v
        if d == 0:
            assert 0 in diag
        else:
            assert prod == d
            for i in range(len(diag) - 1):
                assert diag[i + 1] % diag[i] == 0


def test_finite_abelian_invariants():
    # Z/6 as residues with addition
    elems = list(range(6))
    facs = finite_abelian_invariants(elems, lambda a, b: (a + b) % 6, lambda a: (-a) % 6, 0)
    assert facs == [6]
    # Z/2 x Z/4
    elems = [(a, b) for a in range(2) for b in range(4)]
    facs = finite_abelian_invariants(
        elems,
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4),
        lambda x: ((-x[0]) % 2, (-x[1]) % 4),
        (0, 0),
    )
    assert facs == [2, 4]


def test_snf_oracle_matches_model():
    for F, n, d_max in [(F3, 1, 3), (F3, 2, 3), (F5, 1, 3), (F5, 2, 2), (F3, 0, 3)]:
        rep = snf_oracle(F, n, d_max)
        assert rep["final"] == group_structure_model(F, n), (F, n, rep)
        assert rep["stabilized"], (F, n, rep)


class ReferencePresentation:
    """The truncated presentation with dict-valued relations, kept as a
    test-only reference for the packed rows of `_Presentation`.  A generator
    is (eta power, unit tuple), a relation is a dict generator ->
    coefficient, and each eta-positive generator is rewritten along the
    twisted-tensor pivot at position 0 into a dict over the residual
    generators."""

    def __init__(self, field, n, d_max):
        self.field, self.n, self.d_max = field, n, d_max
        self.units = list(range(1, field.q))
        if n >= 1:
            self.base_gens = [(0, t) for t in self.tuples(n)]
        else:
            self.base_gens = [(0, ())]
            if d_max >= 1:
                self.base_gens.extend((1, (a,)) for a in self.units)
        self.base_index = {g: i for i, g in enumerate(self.base_gens)}
        self.cache = {}

    def tuples(self, r):
        out = [()]
        for _ in range(r):
            out = [t + (a,) for t in out for a in self.units]
        return out

    def rewrite(self, gen):
        if gen in self.base_index:
            return {gen: 1}
        if gen not in self.cache:
            d, (b, bp, *rest) = gen
            rest = tuple(rest)
            parts = [
                ((d - 1, (self.field.mul(b, bp),) + rest), 1),
                ((d - 1, (b,) + rest), -1),
                ((d - 1, (bp,) + rest), -1),
            ]
            out = {}
            for sub, c in parts:
                for base, cc in self.rewrite(sub).items():
                    out[base] = out.get(base, 0) + c * cc
            self.cache[gen] = {g: c for g, c in out.items() if c}
        return self.cache[gen]

    def row(self, combo):
        row = [0] * len(self.base_gens)
        for gen, c in combo.items():
            for base, cc in self.rewrite(gen).items():
                row[self.base_index[base]] += c * cc
        return tuple(row)

    def relation_combos(self, d):
        """Level d: Steinberg at eta power d, twisted tensor at d - 1 in
        positions i >= 1, Witt at e = d - 1."""
        F, n = self.field, self.n
        r = n + d
        if r >= 2:
            for tup in self.tuples(r):
                if any(F.add(tup[i], tup[i + 1]) == 1 for i in range(r - 1)):
                    yield {(d, tup): 1}
        e, r = d - 1, n + d - 1
        for i in range(1, r if e >= 0 else 0):
            yield from self.twisted_tensor_combos(d, i)
        if e >= 1:
            minus_one = F._exp[(F.q - 1) // 2]
            for tup in self.tuples(r):
                for pos in range(r + 1):
                    yield {(e, tup): 2, (d, tup[:pos] + (minus_one,) + tup[pos:]): 1}

    def twisted_tensor_combos(self, d, i):
        """The twisted tensor relations at eta power d - 1 splitting entry i."""
        F, e, r = self.field, d - 1, self.n + d - 1
        for pre in self.tuples(i):
            for b in self.units:
                for bp in self.units:
                    for suf in self.tuples(r - 1 - i):
                        combo = {}
                        for gen, c in [
                            ((e, pre + (F.mul(b, bp),) + suf), 1),
                            ((e, pre + (b,) + suf), -1),
                            ((e, pre + (bp,) + suf), -1),
                            ((d, pre + (b, bp) + suf), -1),
                        ]:
                            combo[gen] = combo.get(gen, 0) + c
                        yield combo

    def level_rows(self, d):
        return [self.row(combo) for combo in self.relation_combos(d)]


def reference_snf_factors(field, n, d_max):
    """The presentation oracle without sharing between levels, kept as a
    reference: a fresh dict-valued presentation per level, every nonzero row
    of every level inserted, no deduplication and no early stop."""
    per_d = []
    for d in range(d_max + 1):
        pres = ReferencePresentation(field, n, d)
        basis = {}
        for level in range(d + 1):
            for row in pres.level_rows(level):
                if any(row):
                    _insert_row(basis, row)
        m = len(pres.base_gens)
        diag = smith_normal_form(list(basis.values()), m)
        free = m - sum(1 for x in diag if x != 0)
        per_d.append(sorted(x for x in diag if x not in (0, 1)) + [0] * free)
    return per_d


def test_snf_oracle_matches_the_level_by_level_reference():
    cases = [(q, n) for q in (3, 5, 7) for n in (0, 1, 2) if (q, n) != (7, 2)]
    for q, n in cases + [(3, 3)]:
        field = ff_build_q(q)
        for d_max in range((4 if n == 0 else 3) + 1):
            rep = snf_oracle(field, n, d_max)
            ref = reference_snf_factors(field, n, d_max)
            assert rep["factors"] == ref, (q, n, d_max)
            assert rep["final"] == ref[-1]
            assert rep["stabilized"] == (len(ref) >= 2 and ref[-1] == ref[-2])


def test_packed_relation_rows_are_the_distinct_reference_rows_in_order():
    cases = [(q, n) for q in (3, 5, 7, 9) for n in (0, 1, 2) if (q, n) not in ((7, 2), (9, 2))]
    for q, n in cases:
        field = ff_build_q(q)
        for d_max in range((4 if n == 0 else 3) + 1):
            pres = _Presentation(field, n, d_max)
            got = list(pres.relation_rows())
            ref = ReferencePresentation(field, n, d_max)
            want, seen = [], set()
            for level in range(d_max + 1):
                for row in ref.level_rows(level):
                    if any(row) and row not in seen:
                        seen.add(row)
                        want.append((level, row))
            assert pres.m == len(ref.base_gens), (q, n, d_max)
            assert got == want, (q, n, d_max)


def test_twisted_tensor_rows_inside_the_eta_window_are_zero():
    # _Presentation.packed_rows skips the twisted tensor relations at eta
    # power e that split an entry at position 1 <= i <= e: each rewrites to 0
    skipped = 0
    for q, n in ((3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1), (5, 2), (7, 1), (9, 1)):
        field = ff_build_q(q)
        d_max = 4 if n == 0 else 3
        ref = ReferencePresentation(field, n, d_max)
        for d in range(d_max + 1):
            e, r = d - 1, n + d - 1
            for i in range(1, min(e + 1, r)):
                for combo in ref.twisted_tensor_combos(d, i):
                    assert not any(ref.row(combo)), (q, n, d, i)
                    skipped += 1
    assert skipped > 10_000, skipped


def test_packed_width_holds_the_largest_coefficient():
    # every coefficient of a relation row at eta power <= d_max is at most
    # 2 * 3^d_max in absolute value; the chosen width must round-trip it
    rng = random.Random(11)
    for d_max in range(14):
        width = _Presentation(F3, 0, d_max).width
        big = 2 * 3**d_max
        for _ in range(20):
            row = tuple(rng.choice((-big, big, rng.randint(-big, big), 0)) for _ in range(9))
            packed = sum(c << (width * i) for i, c in enumerate(row))
            assert _unpack(packed, width, len(row)) == row, (d_max, row)
        assert _unpack(big << width, width, 2) == (0, big)
        assert _unpack(-big << width, width, 2) == (0, -big)


def test_snf_oracle_deep_truncation_over_f3():
    # level 13 is the deepest the size bound allows for degree 0 over F_3
    assert snf_oracle(F3, 0, 13)["final"] == group_structure_model(F3, 0)


def test_snf_oracle_stops_once_the_relations_span_everything(monkeypatch):
    # K^MW_3(F_5) = 0: the relation lattice is all of Z^64 early in level 1
    pulled = []
    rows = _Presentation.packed_rows

    def counted(pres, d):
        for packed in rows(pres, d):
            pulled.append(packed)
            yield packed

    monkeypatch.setattr(_Presentation, "packed_rows", counted)
    rep = snf_oracle(F5, 3, 3)
    assert set(rep["factors"][0]) == {0} and rep["factors"][1:] == [[], [], []]
    assert len(pulled) <= 1000, len(pulled)


def test_snf_oracle_size_bound():
    with pytest.raises(SizeBound, match=r"^generator count \(q-1\)\^4 exceeds bound 10000$"):
        snf_oracle(ff_build_q(13), 1, 3)
    with pytest.raises(SizeBound, match=r"^presentation oracle needs d_max >= 0$"):
        snf_oracle(F3, 1, -1)


def test_relation_generators_die_in_model():
    rng = random.Random(6)
    for F in (F3, F5):
        for n in (1, 2):
            sampler = unit_sampler(F, rng)
            for kind, gen in relation_generators(
                F, n, 2, rng=rng, per_family=8, sampler=sampler
            ):
                assert eval_model(gen, n).is_zero()


def test_cartesian_square_faithfulness():
    # equal projections force equal elements, by definition of the pair model
    rng = random.Random(7)
    for _ in range(100):
        deg = rng.choice([-1, 0, 1, 2])
        x = eval_model(rand_expr(F3, rng, deg), deg)
        y = eval_model(rand_expr(F3, rng, deg), deg)
        if x.project(MILNOR) == y.project(MILNOR) and x.project(WITT) == y.project(WITT):
            assert x == y


def test_theory_projections():
    v = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    assert v.project(MILNOR) == 2
    assert v.project(WITT) == (0, 1)
    assert v.project(MOD2) == 1
    assert not v.is_zero_in(MW)
    h = MWElem.h(F3)
    assert h.is_zero_in(WITT) and not h.is_zero_in(MILNOR)
    eta_m1 = eval_model(SymExpr.bracket(F3.minus_one()).eta_mul(), 0)
    assert eta_m1.is_zero_in(MILNOR) and not eta_m1.is_zero_in(WITT)


def test_base_change_is_additive_and_multiplicative():
    rng = random.Random(8)
    big = ff_build(3, 2)
    for _ in range(60):
        d1, d2 = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        x = rng.choice(model_elements(F3, d1, rank_window=2))
        y = rng.choice(model_elements(F3, d2, rank_window=2))
        assert base_change(x.mul(y), big) == base_change(x, big).mul(base_change(y, big))
        if d1 == d2:
            assert base_change(x.add(y), big) == base_change(x, big).add(
                base_change(y, big)
            )
    # the nonsquare of F_3 becomes a square in F_9
    v = base_change(eval_model(SymExpr.bracket(F3.unit(2)), 1), big)
    assert v.witt == (0, 0)


def test_theory_elements_counts():
    assert len(theory_elements(F3, MILNOR, 1)) == 2
    assert len(theory_elements(F3, WITT, 0)) == 4
    assert len(theory_elements(F3, WITT, 1)) == 2
    assert len(theory_elements(F3, MOD2, 1)) == 2
    assert len(theory_elements(F3, MW, 2)) == 1
