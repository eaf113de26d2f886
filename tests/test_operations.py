import random
from collections import Counter
from itertools import combinations, product

import pytest

from mwk import model, operations
from mwk.errors import FieldMismatch, Inhomogeneous, NotAdmissible, TorsionViolation
from mwk.fields import (
    Place,
    Poly,
    ff_build,
    ff_build_q,
    first_monic_irreducible,
    rat_func_field,
)
from mwk.model import (
    MILNOR,
    MOD2,
    MW,
    WITT,
    MWElem,
    eval_model,
    minus_one_power,
    model_elements,
    model_to_sym,
    theory_elements,
    theory_group_is_trivial,
    theory_torsion_test,
)
from mwk.operations import (
    ADMISSIBILITY_RULES,
    ModelOracle,
    OpSequence,
    ValuationOracle,
    _factor_series,
    _g_map_table,
    _g_map_weights,
    _series_mul,
    _top,
    admissible,
    allowed_coefficients,
    coefficient_allowed,
    f_eval,
    f_lambda_convert,
    lambda_eval,
    lambda_series,
    oracle_for,
    sigma_eval,
    sigma_operator_values,
)
from mwk.exprtext import parse_field_spec
from mwk.suites import (
    SuiteConfig,
    run_suite,
    sample_expr,
    sample_presentation,
    sample_sequence,
    thm84_sequences,
    unit_sampler,
)
from mwk.symbols import SymExpr, _unit_sort_key, embed_expr

F3 = ff_build(3, 1)
F9 = ff_build(3, 2)
RF = rat_func_field(F3)
OM = ModelOracle(F3)


def h_torsion_y(field=F3, degree=0):
    cands = [
        e for e in model_elements(field, degree, rank_window=2) if e.h_mul().is_zero()
    ]
    return cands[-1]  # a nonzero h-torsion element when one exists


def units(*vals):
    return tuple(F3.unit(v) for v in vals)


def of_signed(field, entries):
    """The presentation sum_i sign_i [units_i] of (sign, units) entries,
    added one bracket at a time."""
    x = SymExpr.zero(field)
    for sign, us in entries:
        x = x.add(SymExpr.bracket(*us).scale(sign))
    return x


def of_symbols(n, *unit_tuples):
    """The presentation sum of the given degree-n symbols, each with sign +1."""
    assert all(len(us) == n for us in unit_tuples)
    return of_signed(unit_tuples[0][0].field, [(1, us) for us in unit_tuples])


def test_lambda_series_of_zero():
    series = lambda_series(SymExpr.zero(F3), 1, 4, OM)
    assert list(series) == [0, 1, 2, 3, 4]
    assert series[0] == MWElem.one(F3)
    assert all(series[l] == MWElem.zero(F3, l) for l in range(1, 5))


def test_lambda_low_coefficients_are_identity_and_constant():
    y = h_torsion_y()
    x = of_symbols(1, units(2), units(2))
    assert lambda_eval(1, 0, y, x, OM) == OM.from_base(y)
    xv = OM.bracket(units(2)).scale(2)
    assert lambda_eval(1, 1, y, x, OM) == xv.mul(y)


def test_lambda_elementary_symmetric():
    rng = random.Random(0)
    y = h_torsion_y()
    for _ in range(100):
        n = rng.choice([1, 2])
        r = rng.randrange(1, 4)
        syms = [tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n)) for _ in range(r)]
        x = of_symbols(n, *syms)
        for l in range(0, r + 1):
            got = lambda_eval(n, l, y, x, OM)
            want = None
            for sub in combinations(range(r), l):
                term = OM.one()
                for i in sub:
                    term = term.mul(OM.bracket(syms[i]))
                want = term if want is None else want.add(term)
            want = want.mul(y) if want is not None else MWElem.zero(F3, y.degree + l * n)
            assert got == want


def test_lambda_cancellation():
    y = h_torsion_y()
    a = units(2)
    x = of_signed(F3, [(1, a), (-1, a)])
    assert x.is_structurally_zero()
    for l in (1, 2, 3):
        assert lambda_eval(1, l, y, x, OM).is_zero()


def test_lambda_torsion_precondition():
    x = of_symbols(1, units(2))
    with pytest.raises(TorsionViolation):
        lambda_eval(1, 2, MWElem.one(F3), x, OM)
    # even source degree needs no torsion
    x2 = of_symbols(2, units(2, 2))
    lambda_eval(2, 2, MWElem.one(F3), x2, OM)


def test_lambda_eta_term_series():
    # eta-carrying term: the subset products of the first d+1 entries
    y = h_torsion_y()
    a, b = F3.unit(2), F3.unit(2)
    x = SymExpr(RF, {})  # placeholder; model test below
    expr = SymExpr(F3, {(1, (a, b)): 1})  # eta [a, b], degree 1
    series = lambda_series(expr, 1, 2, OM)
    # factors: (1+[a]t)^-1 (1+[b]t)^-1 (1+[ab]t); t-coefficient = [ab]-[a]-[b]
    want = (
        OM.bracket((a.mul(b),))
        .sub(OM.bracket((a,)))
        .sub(OM.bracket((b,)))
    )
    assert series[1] == want


def _geometric_series(entries, n, trunc):
    """The series of the presentation of (sign, units) entries (pure symbols
    of length n), one factor per entry, with the plain inverse
    sum_j (-[a])^j t^j for each negative one instead of the twisted one."""
    zeros = [OM.zero(l * n) for l in range(trunc + 1)]
    series = [OM.one()] + zeros[1:]
    for sign, us in entries:
        assert len(us) == n
        v = OM.bracket(us)
        if sign == 1:
            factor = [OM.one(), v] + zeros[2:]
        else:
            factor = [OM.one()]
            for _ in range(trunc):
                factor.append(factor[-1].mul(v.neg()))
        product_ = []
        for l in range(trunc + 1):
            acc = zeros[l]
            for i in range(l + 1):
                acc = acc.add(series[i].mul(factor[l - i]))
            product_.append(acc)
        series = product_
    return series


def test_inverse_series_modes_agree():
    # the twisted inverse series agrees with the plain geometric one on an
    # h-torsion coefficient; the geometric side multiplies one factor per
    # drawn entry, so a draw with [a] and -[a] still runs the plain inverse
    rng = random.Random(1)
    y = h_torsion_y()
    for _ in range(50):
        n = rng.choice([1, 2])
        entries = [
            (rng.choice([1, -1]), tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n)))
            for _ in range(rng.randrange(1, 3))
        ]
        x = of_signed(F3, entries)
        for l in range(0, 4):
            twisted = lambda_series(x, n, l, OM)[l]
            plain = _geometric_series(entries, n, l)[l]
            assert twisted.mul(y) == plain.mul(y)


def test_sigma_instantiations():
    # sigma_2 = lambda_2 and sigma_3 = lambda_3 + [-1]^n lambda_2
    rng = random.Random(2)
    y = h_torsion_y()
    for n in (1, 2):
        for trial in range(30):
            syms = [
                tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n)) for _ in range(3)
            ]
            x = of_symbols(n, *syms)
            series = lambda_series(x, n, 3, OM)
            sig = sigma_operator_values(series, n, 3, OM)
            assert sig[2] == series[2]
            assert sig[3] == series[3].add(minus_one_power(F3, n).mul(series[2]))
            # sigma_1 = lambda_1 = id
            assert sigma_eval(n, 1, y, x, OM) == lambda_eval(n, 1, y, x, OM)


def test_f_eval_conversion_matches_direct():
    rng = random.Random(3)
    y = h_torsion_y()
    for _ in range(60):
        n = rng.choice([1, 2])
        r = rng.randrange(1, 3)
        x = of_symbols(
            n, *(tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n)) for _ in range(r))
        )
        for l in (1, 2, 3):
            assert f_eval(n, l, y, x, OM) == f_eval(n, l, y, x, OM, direct=True)
    # over F_3(t) in even source degree, where the coefficient 1 needs no
    # torsion and the values of degree >= 2 do not vanish as they do over F_q
    oracle = ValuationOracle(RF)
    pool = [RF.t_unit(), RF.from_poly(Poly.make(F3, [1, 1])), RF.from_poly(Poly.make(F3, [1, 0, 1]))]
    one = MWElem.one(F3)
    for _ in range(10):
        r = rng.randrange(1, 3)
        x = of_symbols(2, *(tuple(rng.choice(pool) for _ in range(2)) for _ in range(r)))
        for l in (1, 2, 3):
            got = f_eval(2, l, one, x, oracle)
            assert oracle.equal(got, f_eval(2, l, one, x, oracle, direct=True), MW, 2 * l)


def test_f_lambda_convert_is_involution():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([1, 2])
        m = rng.randrange(0, 4)
        coeffs = [rng.choice(model_elements(F3, m - n * l)) for l in range(9)]
        twice = f_lambda_convert(f_lambda_convert(coeffs, n, F3), n, F3)
        assert all(u == v for u, v in zip(coeffs, twice))


def test_op_sequence_typing_and_admissibility():
    a0 = MWElem.zero(F3, 2)
    a1 = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    a2 = h_torsion_y()
    seq = OpSequence(MW, MW, 1, 2, F3, [a0, a1, a2])
    assert seq.admissible()
    # non-torsion a_2 is rejected
    bad = OpSequence(MW, MW, 1, 2, F3, [a0, a1, MWElem.one(F3)])
    assert not bad.admissible()
    with pytest.raises(NotAdmissible):
        bad.require_admissible()
    # degree typing enforced
    with pytest.raises(Inhomogeneous):
        OpSequence(MW, MW, 1, 2, F3, [a1])


def test_admissible_zero_group_forcing():
    # Milnor target: a_2 lives in 2-torsion of K^M_0 = Z, which is 0
    a0 = MWElem.zero(F3, 2)
    a1 = MWElem.zero(F3, 1)
    for a2 in model_elements(F3, 0, rank_window=2):
        ok = admissible(MW, MILNOR, 1, 2, F3, [a0, a1, a2])
        assert ok == a2.add(a2).is_zero_in(MILNOR)
    # Witt targets accept every well-typed sequence
    for a2 in model_elements(F3, 0, rank_window=2):
        assert admissible(MW, WITT, 1, 2, F3, [a0, a1, a2])


def test_op_apply_examples():
    rng = random.Random(5)
    # constant sequence
    a0 = rng.choice(model_elements(F3, 2))
    seq = OpSequence(MW, MW, 1, 2, F3, [a0])
    for _ in range(10):
        x = of_symbols(1, units(rng.randrange(1, 3)))
        assert seq.apply(x, OM) == a0
    # identity-coefficient sequence
    a1 = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    seq = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), a1])
    x = of_symbols(1, units(2))
    assert seq.apply(x, OM) == OM.bracket(units(2)).mul(a1)


def test_vanishing_bound():
    rng = random.Random(6)
    y = h_torsion_y()
    for _ in range(40):
        n = rng.choice([1, 2])
        r = rng.randrange(0, 3)
        s = rng.randrange(0, 3)
        entries = tuple(
            (1, tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n))) for _ in range(r)
        ) + tuple(
            (-1, tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n))) for _ in range(s)
        )
        x = of_signed(F3, entries)
        series = lambda_series(x, n, 8, OM)
        sig = sigma_operator_values(series, n, 8, OM)
        for l in range(2 * max(r, s) + 1, 9):
            assert sig[l].mul(OM.from_base(y)).is_zero(), (n, r, s, l)


def test_shift_transform_examples():
    a2 = h_torsion_y()
    zeros = [MWElem.zero(F3, 2 - l) for l in range(3)]
    seq = OpSequence(MW, MW, 1, 2, F3, [zeros[0], zeros[1], a2])
    minus = seq.shift(-1)
    tau_a2 = minus_one_power(F3, 1).mul(a2)
    assert minus.coeff(0) == tau_a2
    assert minus.coeff(1) == a2
    plus = seq.shift(1)
    assert plus.coeff(0).is_zero() and plus.coeff(1) == a2
    # constants die under both shifts
    const = OpSequence(MW, MW, 1, 2, F3, [model_elements(F3, 2)[0]])
    assert all(c.is_zero() for c in const.shift(1).coeffs)
    assert all(c.is_zero() for c in const.shift(-1).coeffs)


def test_g_map_roundtrip_and_order_insensitivity():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([1, 2])
        m = rng.randrange(0, 3)
        coeffs = []
        for l in range(5):
            deg = m - n * l
            cands = model_elements(F3, deg, rank_window=2)
            if l >= 2 and n % 2 == 1:
                cands = [a for a in cands if a.h_mul().is_zero()]
            coeffs.append(rng.choice(cands))
        seq = OpSequence(MW, MW, n, m, F3, coeffs)
        if not seq.admissible():
            continue
        assert seq.roundtrip_ok()
        assert [a for a in seq.g_map(minus_first=True)] == [
            a for a in seq.g_map(minus_first=False)
        ]


def test_filtration_degree():
    # single a_0 of degree m: filtration degree m
    a = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    seq = OpSequence(MW, MW, 1, 1, F3, [a])
    assert seq.filtration_degree() == 1
    # all-zero: infinity sentinel (None)
    seq0 = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2)])
    assert seq0.filtration_degree() is None
    # a_1 in degree m - n
    seq1 = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), a])
    assert seq1.filtration_degree() == 2
    # shift lowers the filtration degree by at most n
    full = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), a, h_torsion_y()])
    d0 = full.filtration_degree()
    d1 = full.shift(1).filtration_degree()
    assert d1 is None or d0 is None or d1 >= d0 - 1


def test_base_change_to_extension_field():
    big = ModelOracle(F9)
    a1 = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    lifted = big.from_base(a1)
    # the nonsquare of F_3 becomes a square in F_9
    assert lifted.milnor == F3.unit(2).embed(F9).value
    seq = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), a1])
    x = of_symbols(1, (F9.gen_unit(),))
    got = seq.apply(x, big)
    assert got == big.bracket((F9.gen_unit(),)).mul(lifted)


def test_apply_over_function_field():
    oracle = ValuationOracle(RF)
    a1 = eval_model(SymExpr.bracket(F3.unit(2)), 1)
    seq = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), a1])
    x = of_symbols(1, (RF.t_unit(),))
    got = seq.apply(x, oracle)
    want = SymExpr.bracket(RF.t_unit()).mul(oracle.from_base(a1))
    assert oracle.equal(got, want, MW, 2)


def test_oracle_for_dispatch():
    assert isinstance(oracle_for(F3), ModelOracle)
    assert isinstance(oracle_for(RF), ValuationOracle)


def test_series_on_eta_terms_matches_pure_symbol_reduction():
    # independent route: absorb the eta powers into pure symbols first and
    # run the plain elementary-symmetric series; the subset-product series
    # on the eta form must give the same operation values
    from mwk.symbols import eta_reduce

    rng = random.Random(11)
    y = h_torsion_y()
    for _ in range(120):
        n = rng.choice([1, 2])
        terms = []
        for _ in range(rng.randrange(1, 3)):
            d = rng.randrange(0, 3)
            units = tuple(F3.unit_exp(rng.randrange(2)) for _ in range(n + d))
            terms.append(((d, units), rng.choice([-1, 1, 2])))
        x = SymExpr(F3, terms)
        reduced = eta_reduce(x)
        assert eval_model(x, n) == eval_model(reduced, n)
        sa = lambda_series(x, n, 3, OM)
        sb = lambda_series(reduced, n, 3, OM)
        for l in range(4):
            assert sa[l].mul(y) == sb[l].mul(y), (n, l, terms)


def test_series_on_eta_terms_matches_reduction_over_function_field():
    from mwk.symbols import eta_reduce
    from mwk.valuation import equal as rf_equal

    rng = random.Random(12)
    oracle = ValuationOracle(RF)
    y = h_torsion_y()
    y_val = oracle.from_base(y)
    units_pool = [RF.t_unit(), RF.from_poly(Poly.make(F3, [1, 1])), RF.constant(2)]
    for _ in range(25):
        n = 1
        d = rng.randrange(1, 3)
        units = tuple(rng.choice(units_pool) for _ in range(n + d))
        x = SymExpr(RF, {(d, units): rng.choice([-1, 1])})
        reduced = eta_reduce(x)
        sa = lambda_series(x, n, 2, oracle)
        sb = lambda_series(reduced, n, 2, oracle)
        for l in (1, 2):
            assert oracle.equal(sa[l].mul(y_val), sb[l].mul(y_val), MW, y.degree + l * n)


def test_lambda_one_is_identity_on_eta_terms():
    # the linear coefficient of the series of eta [a, b] recovers the element
    rng = random.Random(9)
    y = h_torsion_y()
    for _ in range(40):
        a = F3.unit_exp(rng.randrange(2))
        b = F3.unit_exp(rng.randrange(2))
        expr = SymExpr(F3, {(1, (a, b)): 1})
        got = lambda_eval(1, 1, y, expr, OM)
        want = eval_model(expr, 1).mul(y)
        assert got == want
    # and over the function field, with the valuation oracle deciding
    oracle = ValuationOracle(RF)
    t = RF.t_unit()
    tp1 = RF.from_poly(Poly.make(F3, [1, 1]))
    expr = SymExpr(RF, {(1, (t, tp1)): 1})
    y2 = h_torsion_y()
    got = lambda_eval(1, 1, y2, expr, oracle)
    want = expr.mul(oracle.from_base(y2))
    assert oracle.equal(got, want, MW, 1)


def test_divided_power_series_examples():
    from mwk.operations import divided_power_series

    y = h_torsion_y()
    x = of_symbols(1, units(2))
    series = divided_power_series(1, x, y, 3, OM)
    assert series[0] == OM.from_base(y)
    assert series[1] == OM.bracket(units(2)).mul(y)
    assert series[2].is_zero() and series[3].is_zero()
    empty = divided_power_series(1, SymExpr.zero(F3), y, 2, OM)
    assert empty[0] == y and all(v.is_zero() for v in empty[1:])
    with pytest.raises(TorsionViolation):
        divided_power_series(1, x, MWElem.one(F3), 2, OM)


def windowed_sequences(field, source, target, n, m, trunc=8):
    """Every sequence whose coefficients in degrees -2..2 run over the model
    elements (rank window 2) and vanish elsewhere, as in thm84."""
    slots = [l for l in range(trunc + 1) if abs(m - n * l) <= 2]
    choices = [model_elements(field, m - n * l, rank_window=2) for l in slots]
    for combo in product(*choices):
        picked = dict(zip(slots, combo))
        coeffs = [
            picked[l] if l in picked else MWElem.zero(field, m - n * l)
            for l in range(trunc + 1)
        ]
        yield OpSequence(source, target, n, m, field, coeffs)


def test_shift_preserves_admissibility():
    # pins the property that lets a shift result inherit its source's
    # verdict, for every row of the table; each shifted sequence is decided
    # afresh by the module-level predicate
    rng = random.Random(84)
    checked = 0
    for (source, target), n, m in product(ADMISSIBILITY_RULES, (1, 2), (0, 1, 2)):
        f3 = list(windowed_sequences(F3, source, target, n, m))
        f9 = list(windowed_sequences(F9, source, target, n, m))
        f9 = rng.sample(f9, min(len(f9), 40))
        for seq in f3 + f9:
            if not seq.admissible():
                continue
            checked += 1
            for sign in (1, -1):
                shifted = seq.shift(sign)
                assert admissible(source, target, n, m - n, seq.field, shifted.coeffs), (
                    source, target, n, m, sign, seq,
                )
    assert checked > 5000


def full_support_sequences(field, n, m, trunc, rng, count):
    """Up to `count` admissible sequences with every coefficient drawn from
    the model elements of its degree (h-torsion at l >= 2 for odd n, as in
    thm84), so the table's terms beyond thm84's degree window are exercised."""
    choices = []
    for l in range(trunc + 1):
        cands = model_elements(field, m - n * l, rank_window=2)
        if l >= 2 and n % 2:
            cands = [a for a in cands if theory_torsion_test(a, "h", MW)]
        choices.append(cands)
    out = []
    for _ in range(20 * count):
        seq = OpSequence(MW, MW, n, m, field, [rng.choice(c) for c in choices])
        if seq.admissible():
            out.append(seq)
            if len(out) == count:
                break
    return out


def test_g_map_reads_the_shifted_sequences():
    # windowed sequences as in thm84, then full-support ones whose table
    # terms reach beyond thm84's degree window
    rng = random.Random(12)
    seqs = []
    for field in (F3, F9):
        for _ in range(40):
            n = rng.choice([1, 2])
            m = rng.randrange(0, 3)
            seq = rng.choice(list(windowed_sequences(field, MW, MW, n, m)))
            if seq.admissible():
                seqs.append(seq)
    full = random.Random(14)
    for field, n, m, trunc in product((F3, F9), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 8, 12)):
        seqs += full_support_sequences(field, n, m, trunc, full, 2)
    assert len(seqs) >= 250
    for seq in seqs:
        for minus_first in (True, False):
            want = []
            for l in range(seq.trunc + 1):
                plus, minus = (l + 1) // 2, l // 2
                if minus_first:
                    chain = seq.shifted(plus, minus)
                else:  # the plus shifts first
                    chain = seq.shifted(plus, 0).shifted(0, minus)
                want.append(chain.coeff(0))
            assert seq.g_map(minus_first=minus_first) == want, (seq, minus_first)


def test_g_map_makes_no_shift_step(monkeypatch):
    # g_map sums each entry from the path table; the shift chain is only its
    # reference (test_g_map_reads_the_shifted_sequences)
    calls = [0]
    step = OpSequence.shift

    def counting_step(self, sign):
        calls[0] += 1
        return step(self, sign)

    monkeypatch.setattr(OpSequence, "shift", counting_step)
    seq = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2 - l) for l in range(9)])
    for minus_first in (True, False):
        seq.g_map(minus_first=minus_first)
    assert calls[0] == 0


def test_a_warm_g_map_reads_its_weights(monkeypatch):
    # each weight is c tau^(k-l) for a pair (k, c) of _g_map_table, here by
    # repeated multiplication with [-1] and repeated addition; the model's
    # zeros are left out
    for field, n, L, minus_first in product((F3, F9), (1, 2, 3), (0, 1, 4, 8), (True, False)):
        m1 = MWElem.from_unit(field.minus_one())
        table = _g_map_table(L, minus_first)
        weights = _g_map_weights(field, n, L, minus_first)
        assert len(weights) == len(table)
        for l, (row, got) in enumerate(zip(table, weights)):
            want = []
            for k, c in row:
                power = MWElem.one(field)
                for _ in range(n * (k - l)):
                    power = power.mul(m1)
                w = MWElem.zero(field, n * (k - l))
                for _ in range(c):
                    w = w.add(power)
                if not w.is_zero():
                    want.append((k, w))
            assert list(got) == want, (field, n, L, minus_first, l)
            assert got[0] == (l, MWElem.one(field))
    rng = random.Random(31)
    seqs = [
        seq
        for field, n, m in product((F3, F9), (1, 2), (0, 1, 2))
        for seq in full_support_sequences(field, n, m, 8, rng, 2)
    ]
    want = {(i, mf): seq.g_map(mf) for i, seq in enumerate(seqs) for mf in (True, False)}
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(MWElem, "scale")
    counted(operations, "minus_one_power")
    counted(model, "minus_one_power")
    for (i, minus_first), entries in want.items():
        assert seqs[i].g_map(minus_first) == entries
    assert not calls, calls


def counted_paths(signs, L):
    """Brute force over every choice of steps: walk from position 0 back
    through the shifts `signs`, one index per step or two where the step's
    parity takes the twist, and count the walks ending at an index <= L."""
    ends = Counter()
    for steps in product((1, 2), repeat=len(signs)):
        j = 0
        for sign, step in zip(reversed(signs), steps):
            if step == 2 and j % 2 != (sign == +1):
                break
            j += step
        else:
            if j <= L:
                ends[j] += 1
    return tuple(sorted(ends.items()))


def test_g_map_table_shape():
    for L, minus_first in product(range(13), (True, False)):
        rows = _g_map_table(L, minus_first)
        assert len(rows) == L + 1
        for l, row in enumerate(rows):
            assert row[0] == (l, 1), (L, minus_first, l)
            assert all(l <= k <= min(2 * l, L) and c > 0 for k, c in row), (L, l, row)
    assert _g_map_table(8, True)[3:5] == (((3, 1), (4, 2)), ((4, 1), (5, 2), (6, 2)))
    for L, minus_first in product((8, 12), (True, False)):
        for l, row in enumerate(_g_map_table(L, minus_first)):
            plus, minus = [+1] * ((l + 1) // 2), [-1] * (l // 2)
            assert row == counted_paths(minus + plus if minus_first else plus + minus, L)


def test_g_map_of_an_inadmissible_sequence_raises():
    """Every entry that reads a sequence as an operation checks its
    admissibility: there is no unchecked twin."""
    bad = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), MWElem.zero(F3, 1), MWElem.one(F3)])
    for minus_first in (True, False):
        with pytest.raises(NotAdmissible):
            bad.g_map(minus_first=minus_first)
    with pytest.raises(NotAdmissible):
        bad.shifted(1, 1)
    with pytest.raises(NotAdmissible):
        bad.roundtrip_ok()


def test_a_sequence_runs_the_rule_once(monkeypatch):
    calls = [0]
    rule = operations.coefficient_allowed

    def counting_rule(*args):
        calls[0] += 1
        return rule(*args)

    monkeypatch.setattr(operations, "coefficient_allowed", counting_rule)
    a2 = h_torsion_y()
    seq = OpSequence(MW, MW, 1, 2, F3, [MWElem.zero(F3, 2), MWElem.zero(F3, 1), a2, MWElem.zero(F3, -1)])
    x = of_symbols(1, units(2))
    for _ in range(3):
        seq.apply(x, OM)
        shifted = seq.shift(1)
        seq.g_map()
        assert seq.roundtrip_ok()
    assert calls[0] == len(seq.coeffs)
    # a shift result inherits the verdict
    shifted.apply(x, OM)
    shifted.shift(-1).g_map()
    seq.shifted(2, 1)
    assert calls[0] == len(seq.coeffs)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_allowed_coefficients_are_the_rule_filtered_enumeration(q):
    field = ff_build_q(q)
    for (source, target) in ADMISSIBILITY_RULES:
        for n, l, degree in product(range(1, 4), range(5), range(-3, 4)):
            got = allowed_coefficients(field, source, target, n, l, degree)
            want = [
                a
                for a in theory_elements(field, target, degree)
                if coefficient_allowed(source, target, n, l, a)
            ]
            assert list(got) == want, (source, target, n, l, degree)
            assert allowed_coefficients(field, source, target, n, l, degree) is got


def test_sample_sequence_fills_each_slot_once(monkeypatch):
    calls = [0]
    rule = operations.coefficient_allowed

    def counting_rule(*args):
        calls[0] += 1
        return rule(*args)

    monkeypatch.setattr(operations, "coefficient_allowed", counting_rule)
    allowed_coefficients.cache_clear()
    n, m, L = 1, 2, 4
    rng = random.Random(7)
    sample_sequence(F3, MW, MW, n, m, L, rng)
    slots = sum(len(theory_elements(F3, MW, m - n * l)) for l in range(L + 1))
    assert calls[0] == slots
    for _ in range(49):
        sample_sequence(F3, MW, MW, n, m, L, rng)
    assert calls[0] == slots


@pytest.mark.parametrize("spec", ["3", "9", "3(t)"])
def test_sample_presentation_is_the_signed_sum_of_the_replayed_draws(spec):
    field = parse_field_spec(spec)
    rng, replay = random.Random(41), random.Random(41)
    sampler = unit_sampler(field, rng, max_degree=1)
    replay_sampler = unit_sampler(field, replay, max_degree=1)
    for n, r_max, s_max in product((1, 2), (0, 1, 3), (0, 2)):
        for _ in range(5):
            x = sample_presentation(field, n, rng, r_max, s_max, sampler)
            want = SymExpr.zero(field)
            for sign, bound in ((1, r_max), (-1, s_max)):
                for _ in range(replay.randrange(0, bound + 1)):
                    units_ = [replay_sampler() for _ in range(n)]
                    want = want.add(SymExpr.bracket(*units_).scale(sign))
            assert x == want and x.field is field
            assert rng.getstate() == replay.getstate()


def test_built_sequences_are_admissible_when_decided_afresh():
    """sample_sequence and thm84 mark the sequences they build admissible
    without deciding it; the module-level predicate decides each afresh."""
    rng = random.Random(23)
    for field in (F3, ff_build(5, 1), F9):
        for source, target in ADMISSIBILITY_RULES:
            for n in (1, 2):
                for m in range(-1, 4):
                    seq = sample_sequence(field, source, target, n, m, 4, rng)
                    assert seq._admissible is True
                    assert admissible(source, target, n, m, field, seq.coeffs), seq
    for field in (F3, F9):
        count = 0
        for seq in thm84_sequences(field, 4):
            assert seq._admissible is True
            assert admissible(seq.source, seq.target, seq.n, seq.m, field, seq.coeffs), seq
            count += 1
        assert count > 100


def test_an_unknown_row_raises_not_admissible():
    message = "no admissibility row for Milnor -> Mod2Milnor"
    with pytest.raises(NotAdmissible, match=message):
        coefficient_allowed(MILNOR, MOD2, 1, 2, MWElem.one(F3))
    with pytest.raises(NotAdmissible, match=message):
        allowed_coefficients(F3, MILNOR, MOD2, 1, 2, 0)
    with pytest.raises(NotAdmissible, match=message):
        OpSequence(MILNOR, MOD2, 1, 2, F3, [MWElem.zero(F3, 2)])


def test_minus_one_power_closed_form():
    for q in (3, 5, 7, 9, 25):
        field = ff_build_q(q)
        m1 = MWElem.from_unit(field.minus_one())
        product_ = MWElem.one(field)
        for k in range(7):
            assert minus_one_power(field, k) == product_, (q, k)
            product_ = product_.mul(m1)


# -- the oracle's sigma-series cache ---------------------------------------------


def series_inputs(field, rng):
    """Seeded (x, n): presentations, and expressions that carry eta terms."""
    sampler = unit_sampler(field, rng, max_degree=1)
    out = []
    for n in (1, 2):
        for _ in range(3):
            out.append((sample_presentation(field, n, rng, r_max=2, s_max=1, sampler=sampler), n))
            out.append((sample_expr(field, n, rng, max_terms=2, max_eta=1, sampler=sampler), n))
    return out


@pytest.mark.parametrize("spec,L", [("3", 5), ("9", 5), ("3(t)", 3), ("5(t)", 3), ("25(t)", 3)])
def test_cached_series_equal_a_fresh_computation_at_every_truncation(spec, L, monkeypatch):
    """One lambda_series call per (x, n), small truncations first or large
    first.  Every value up to top equals a fresh computation; above top the
    cache holds the oracle's structural zero, where a fresh sigma over
    F_q(t) can be a nonzero expression that is zero in its group."""
    field = parse_field_spec(spec)
    fresh = oracle_for(field)
    computed = []
    monkeypatch.setattr(
        operations, "lambda_series", lambda *args: computed.append(args) or lambda_series(*args)
    )
    zero_in_group = 0
    for x, n in series_inputs(field, random.Random(21)):
        top = _top(field, n)
        want_lambda = [lambda_series(x, n, l, fresh) for l in range(L + 1)]
        want_sigma = [
            sigma_operator_values(s, n, l, fresh) for l, s in enumerate(want_lambda)
        ]
        for order in (range(L + 1), range(L, -1, -1)):
            oracle = oracle_for(field)
            computed.clear()
            for l in order:
                lam, sig = oracle.lambda_values(x, n, l), oracle.sigma_series(x, n, l)
                assert len(lam) == len(sig) == l + 1
                for i in range(l + 1):
                    for got, want in ((lam[i], want_lambda[l][i]), (sig[i], want_sigma[l][i])):
                        if i <= top:
                            assert got == want, (spec, x, n, l, i)
                        else:
                            assert got.is_structurally_zero(), (spec, x, n, l, i)
                            assert oracle.is_zero(want, MW, i * n), (spec, x, n, l, i)
                            zero_in_group += not want.is_structurally_zero()
            assert len(oracle._series) == 1
            assert len(computed) == 1, (spec, x, n)
    assert (zero_in_group > 0) == ("(t)" in spec)


def full_series(x, n, trunc, oracle):
    """The product of lambda_series's factor series, in its order, built with
    `_factor_series` and `_series_mul` at the full trunc: the reference that
    lambda_series truncates at the last degree with a nonzero group."""
    series = {0: oracle.one()}
    order = lambda kv: (kv[0][0], tuple(_unit_sort_key(u) for u in kv[0][1]))
    for (d, us), mult in sorted(x.terms.items(), key=order):
        head, tail = us[: d + 1], us[d + 1 :]
        if any(u.is_one() for u in tail):
            continue
        for size in range(1, d + 2):
            for J in combinations(range(d + 1), size):
                prod = head[J[0]]
                for idx in J[1:]:
                    prod = prod.mul(head[idx])
                if not prod.is_one():
                    exponent = mult if (d + 1 - size) % 2 == 0 else -mult
                    factor = _factor_series(oracle, oracle.bracket((prod,) + tail), n, exponent, trunc)
                    series = _series_mul(series, factor, trunc)
    return series


@pytest.mark.parametrize("spec", ["3", "9", "3(t)", "5(t)"])
def test_series_coefficients_in_vanishing_degrees_are_zero_without_computation(spec):
    """K^MW_l*n vanishes from l*n = 2 on over F_q and from 3 on over F_q(t).
    lambda_series returns the oracle's structural zero at every such index,
    and every lower index equals the reference product at the full
    truncation, whose higher coefficients the oracle calls zero.  Over
    F_q(t) some compared coefficient of degree 2 is nonzero, so a
    truncation one index too early fails here."""
    field, L = parse_field_spec(spec), 5
    oracle = oracle_for(field)
    nonzero_in_degree_2 = 0
    for x, n in series_inputs(field, random.Random(35)):
        got, want = lambda_series(x, n, L, oracle), full_series(x, n, L, oracle)
        for l in range(L + 1):
            degree = l * n
            full = want.get(l, oracle.zero(degree))
            if theory_group_is_trivial(field, MW, degree):
                assert got[l].is_structurally_zero(), (spec, x, n, l)
                assert oracle.is_zero(full, MW, degree), (spec, x, n, l)
            else:
                assert got[l] == full, (spec, x, n, l)
                nonzero_in_degree_2 += degree == 2 and not oracle.is_zero(full, MW, degree)
    assert nonzero_in_degree_2 or "(t)" not in spec


@pytest.fixture
def computed(monkeypatch):
    """Counts the calls of the uncached step, lambda_series, per (x, n)."""
    counts = Counter()
    uncached = operations.lambda_series

    def counting(x, n, trunc, oracle):
        counts[x, n] += 1
        return uncached(x, n, trunc, oracle)

    monkeypatch.setattr(operations, "lambda_series", counting)
    return counts


def test_a_presentation_and_its_expression_share_one_entry(computed):
    for field in (F3, RF):
        oracle = oracle_for(field)
        m1 = field.minus_one()
        # [-1] + [-1], added one bracket at a time, and one term 2 [-1]
        x = of_symbols(1, (m1,), (m1,))
        oracle.sigma_series(x, 1, 3)
        expr = SymExpr(field, {(0, (m1,)): 2})
        assert expr is not x and expr == x and hash(expr) == hash(x)
        assert oracle.lambda_values(expr, 1, 2) == oracle.lambda_values(x, 1, 2)
        assert oracle.sigma_series(expr, 1, 3) == oracle.sigma_series(x, 1, 3)
        assert len(oracle._series) == 1
        # the key is the exact terms: an expression with the same terms is
        # the same entry, another expression of the same element is not
        oracle.lambda_values(expr.add(expr).sub(expr), 1, 3)
        assert len(oracle._series) == 1
        oracle.lambda_values(expr.add(SymExpr.bracket(field.one_unit())), 1, 3)
        assert len(oracle._series) == 2
    assert sum(computed.values()) == 4


def test_invalid_input_raises_on_a_cold_and_a_warm_oracle():
    """The series raise on invalid input, and so does an operation value,
    the same in a degree m where K^MW_m vanishes (where it computes
    nothing) as in the degree below, where it does not."""
    for oracle, vanishing in ((ModelOracle(F3), 2), (ValuationOracle(RF), 3)):
        m1 = oracle.field.minus_one()
        x = of_symbols(1, (m1,))
        seqs = [
            OpSequence(MW, MW, 1, m, F3, [MWElem.zero(F3, m - l) for l in range(3)])
            for m in (vanishing, vanishing - 1)
        ]
        for warm in (False, True):
            if warm:
                oracle.sigma_series(x, 1, 4)
            with pytest.raises(NotAdmissible):
                oracle.sigma_series(SymExpr.one(oracle.field), 0, 2)
            with pytest.raises(NotAdmissible):
                oracle.lambda_values(x, 0, 2)
            with pytest.raises(Inhomogeneous):
                oracle.lambda_values(x, 2, 2)
            with pytest.raises(Inhomogeneous):
                oracle.sigma_series(SymExpr.bracket(m1, m1), 1, 2)
            with pytest.raises(FieldMismatch):
                oracle.sigma_series(SymExpr.bracket(F9.minus_one()), 1, 2)
            for seq in seqs:
                for value in (seq.apply, seq.evaluate):
                    with pytest.raises(FieldMismatch):
                        value(SymExpr.bracket(F9.minus_one()), oracle)
                    with pytest.raises(Inhomogeneous):  # degrees 1 and 2
                        value(x.add(SymExpr.bracket(m1, m1)), oracle)
                    with pytest.raises(Inhomogeneous):  # degree 2 for n = 1
                        value(SymExpr.bracket(m1, m1), oracle)
            assert len(oracle._series) == warm


def test_lemma75_computes_each_series_once(computed):
    assert run_suite("lemma75", SuiteConfig(F3)).passed
    assert computed and set(computed.values()) == {1}, computed.most_common(3)


@pytest.mark.parametrize("spec", ["3", "9", "3(t)", "5(t)"])
def test_values_in_vanishing_degrees_compute_no_series(spec, computed):
    """apply and evaluate into the first two degrees m where K^MW_m vanishes
    (from 2 on over F_q, from 3 on over F_q(t)) return the oracle's zero
    and make no lambda_series call."""
    field = parse_field_spec(spec)
    oracle, rng = oracle_for(field), random.Random(36)
    first = next(m for m in range(5) if theory_group_is_trivial(field, MW, m))
    for x, n in series_inputs(field, rng):
        for m in (first, first + 1):
            seq = sample_sequence(oracle.base, MW, MW, n, m, 4, rng)
            assert seq.apply(x, oracle) == oracle.zero(m), (spec, x, n, m)
            assert seq.evaluate(x, oracle) == oracle.zero(m), (spec, x, n, m)
    assert not computed and not oracle._series


def test_lemma93_computes_series_only_for_its_degree_0_correction(computed, monkeypatch):
    """lemma93 over 3 at its defaults (n = 1, m = 2) applies its sequences
    into degree 2, where K^MW_2(F_3) = 0, and computes no series for them.
    The only series it computes are those of its correction term, whose
    twice-shifted sequence lies in degree 0."""
    per_degree = Counter()
    evaluate = OpSequence.evaluate

    def recording(seq, x, oracle):
        before = sum(computed.values())
        value = evaluate(seq, x, oracle)
        per_degree[seq.m] += sum(computed.values()) - before
        return value

    monkeypatch.setattr(OpSequence, "evaluate", recording)
    assert run_suite("lemma93", SuiteConfig(F3)).passed
    assert sorted(per_degree) == [0, 2] and per_degree[2] == 0 and per_degree[0] > 0


# -- an oracle is a lift, a bracket and a zero test -------------------------------


def test_oracle_constants_are_lifts_of_the_base_constants():
    kappa = Place(RF, first_monic_irreducible(F3, 2)).residue_data().kappa
    for field in (F3, F9, kappa):
        oracle = ModelOracle(field)
        assert oracle.one() is MWElem.one(field)
        for d in range(-3, 5):
            assert oracle.zero(d) is MWElem.zero(field, d), (field, d)
        for k in range(5):
            assert oracle.minus_one_power(k) is minus_one_power(field, k), (field, k)
    for spec in ("3(t)", "25(t)"):
        rf = parse_field_spec(spec)
        oracle = ValuationOracle(rf)
        assert oracle.one() == SymExpr.one(rf)
        for d in range(-3, 5):
            assert oracle.zero(d) == SymExpr.zero(rf), (spec, d)
        for k in range(5):
            want = embed_expr(model_to_sym(minus_one_power(rf.base, k)), rf)
            assert oracle.minus_one_power(k) == want, (spec, k)


@pytest.mark.parametrize("spec", ["3(t)", "25(t)"])
def test_a_valuation_oracle_lifts_each_base_value_once(spec, monkeypatch):
    rf = parse_field_spec(spec)
    embeds = Counter()
    uncounted = operations.embed_expr

    def counting(expr, target):
        embeds[expr] += 1
        return uncounted(expr, target)

    monkeypatch.setattr(operations, "embed_expr", counting)
    oracle = ValuationOracle(rf)
    assert oracle._lifts == {}
    values = [e for d in range(-2, 3) for e in model_elements(rf.base, d)]
    for e in values + values:
        assert oracle.from_base(e) == uncounted(model_to_sym(e), rf), (spec, e)
    assert sum(embeds.values()) == len(set(values)) == len(oracle._lifts)
    assert ValuationOracle(rf)._lifts == {}


def test_model_values_answer_the_structural_zero_test():
    for field in (F3, ff_build(5, 1), F9):
        for d in range(-2, 3):
            for e in model_elements(field, d):
                assert e.is_structurally_zero() == e.is_zero(), (field, d, e)
