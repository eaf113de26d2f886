"""Units share the expression grammar (sum, product, power) and use the
fields' own arithmetic: a differential test against small reference
evaluators, the cost of powers counted in calls, and the zero rules."""

import random

import pytest

from mwk.cli import main
from mwk.errors import DegreeBound, ParseError
from mwk.exprtext import parse_unit
from mwk.fields import FiniteField, Poly, ff_build_q, rat_func_field

F3 = ff_build_q(3)
RF3 = rat_func_field(F3)


# -- reference arithmetic over F_q = F_p[x]/(modulus), on digit lists ---------


def _digits(F, a):
    return [(a // F.p**i) % F.p for i in range(F.d)]


def _ref_mul(F, a, b):
    p, m = F.p, F.modulus
    x, y = _digits(F, a), _digits(F, b)
    prod = [0] * (2 * F.d - 1)
    for i, c in enumerate(x):
        for j, c2 in enumerate(y):
            prod[i + j] = (prod[i + j] + c * c2) % p
    for i in range(len(prod) - 1, F.d - 1, -1):
        c = prod[i]
        for j in range(F.d + 1):
            prod[i - F.d + j] = (prod[i - F.d + j] - c * m[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[: F.d]))


def _ref_add(F, a, b):
    pairs = zip(_digits(F, a), _digits(F, b))
    return sum((x + y) % F.p * F.p**i for i, (x, y) in enumerate(pairs))


def _ref_neg(F, a):
    return sum((-x) % F.p * F.p**i for i, x in enumerate(_digits(F, a)))


def _ref_pow(F, a, e):
    if e < 0:
        if a == 0:
            return None  # undefined, and so is every value built from it
        a, e = _ref_pow(F, a, F.q - 2), -e
    out = 1
    for _ in range(e):
        out = _ref_mul(F, out, a)
    return out


class _Fq:
    def __init__(self, F):
        self.F = F

    def leaf(self, rng):
        F = self.F
        if rng.random() < 0.25:
            return "g", F.generator
        n = rng.randrange(3 * F.p if F.d == 1 else F.q)
        return str(n), n % F.p if F.d == 1 else n

    def add(self, a, b):
        return _ref_add(self.F, a, b)

    def neg(self, a):
        return _ref_neg(self.F, a)

    def mul(self, a, b):
        return _ref_mul(self.F, a, b)

    def pow(self, a, e):
        return _ref_pow(self.F, a, e)


class _Fractions:
    """Reference arithmetic over F_q(t) on (numerator, denominator) pairs."""

    def __init__(self, base):
        self.base = base

    def leaf(self, rng):
        if rng.random() < 0.5:
            return "t", (Poly.var(self.base), Poly.const(self.base, 1))
        n = rng.randrange(self.base.q)
        return str(n), (Poly.const(self.base, n), Poly.const(self.base, 1))

    def add(self, a, b):
        return (a[0].mul(b[1]).add(b[0].mul(a[1])), a[1].mul(b[1]))

    def neg(self, a):
        return (a[0].neg(), a[1])

    def mul(self, a, b):
        return (a[0].mul(b[0]), a[1].mul(b[1]))

    def pow(self, a, e):
        num, den = a
        if e < 0:
            if num.is_zero():
                return None
            num, den, e = den, num, -e
        out = (Poly.const(self.base, 1), Poly.const(self.base, 1))
        for _ in range(e):
            out = self.mul(out, (num, den))
        return out


def _lift(op, *values):
    return None if any(v is None for v in values) else op(*values)


def _random_sum(rng, ref, depth):
    """(text, reference value) of a random `sum` of the unit grammar."""
    text, value = _random_product(rng, ref, depth)
    if rng.random() < 0.2:
        text, value = "-" + text, _lift(ref.neg, value)
    for _ in range(rng.randrange(3 if depth else 1)):
        op = rng.choice("+-")
        rtext, rvalue = _random_product(rng, ref, depth)
        text += op + rtext
        value = _lift(ref.add, value, rvalue if op == "+" else _lift(ref.neg, rvalue))
    return text, value


def _random_product(rng, ref, depth):
    text, value = _random_power(rng, ref, depth)
    for _ in range(rng.randrange(3 if depth else 1)):
        rtext, rvalue = _random_power(rng, ref, depth)
        text, value = f"{text}*{rtext}", _lift(ref.mul, value, rvalue)
    return text, value


def _random_power(rng, ref, depth):
    if depth and rng.random() < 0.4:
        text, value = _random_sum(rng, ref, depth - 1)
        text = f"({text})"
    else:
        text, value = ref.leaf(rng)
    if rng.random() < 0.4:
        e = rng.randint(-3, 3)
        text, value = f"{text}^{e}", _lift(ref.pow, value, e)
    return text, value


def test_units_over_finite_fields_match_a_reference_evaluator():
    rng = random.Random(19)
    for q in (3, 9, 25):
        F = ff_build_q(q)
        ref = _Fq(F)
        for _ in range(300):
            text, value = _random_sum(rng, ref, 2)
            if value is None or value == 0:
                with pytest.raises(ParseError, match="0 is not a unit"):
                    parse_unit(text, F)
            else:
                assert parse_unit(text, F).value == value, (q, text)


def test_units_over_function_fields_match_the_expanded_fraction():
    rng = random.Random(20)
    compared = 0
    for q in (5, 9):
        rf = rat_func_field(ff_build_q(q))
        ref = _Fractions(rf.base)
        for _ in range(150):
            text, value = _random_sum(rng, ref, 2)
            num, den = value or (Poly.zero(rf.base), None)
            if num.is_zero():
                with pytest.raises(ParseError, match="0 is not a unit"):
                    parse_unit(text, rf)
            elif max(num.degree, den.degree) <= 12:
                assert parse_unit(text, rf) == rf.from_fraction(num, den), (q, text)
                compared += 1
    assert compared >= 150


def test_precedence_and_signs():
    F5 = ff_build_q(5)
    assert parse_unit("2+2*2", F5).value == 1
    assert parse_unit("-2^2", F5).value == 1
    assert parse_unit("(2+3*4)^-1*2^3", F5).value == 2
    assert parse_unit("g^-1*g", F5).value == 1
    assert parse_unit("-(t+1)*(t+2)^-1", RF3) == RF3.from_fraction(
        Poly.make(F3, [2, 2]), Poly.make(F3, [2, 1])
    )


def _count_calls(monkeypatch, cls, *names):
    calls = []
    for name in names:
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *args, _m=method: calls.append(1) or _m(*args)
        )
    return calls


def test_unit_powers_take_one_field_power(monkeypatch):
    calls = _count_calls(monkeypatch, FiniteField, "mul", "pow")
    assert parse_unit("2^1000000", F3).value == 1
    assert len(calls) <= 4


def test_a_sum_checks_the_degree_cap_before_expanding(monkeypatch):
    calls = _count_calls(monkeypatch, Poly, "mul")
    with pytest.raises(DegreeBound, match="fraction expansion exceeds the degree cap"):
        parse_unit("t^5000+1", RF3)
    assert not calls


@pytest.mark.parametrize("field", [F3, RF3])
def test_zero_rules(field):
    one = field.one_unit()
    assert parse_unit("0^0", field) == one
    assert parse_unit("(0*2)^0*1", field) == one
    assert parse_unit("0^2+1", field) == one
    for text in ("0", "0^3", "1-1", "0^-1", "(1-1)^-2*2", "2*(0^0-1)^-1"):
        with pytest.raises(ParseError, match="0 is not a unit"):
            parse_unit(text, field)


def _eval(capsys, text, spec):
    code = main(["eval", text, "--field", spec])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("spec", ["3", "3(t)"])
def test_a_power_of_an_undefined_value_is_a_parse_error(capsys, spec):
    # 0^-1 is undefined, so raising it to the power 0 does not make it 1
    code, err = _eval(capsys, "[(0^-1+1)^0]", spec)
    assert code == 2 and "ParseError: 0 is not a unit" in err


@pytest.mark.parametrize("text", ["[(t^40-t^40+1), t]", "[(t+1)^3000+1]", "[t^400000+1]"])
def test_a_sum_past_the_degree_cap_is_refused_before_expansion(capsys, text):
    code, err = _eval(capsys, text, "3(t)")
    assert code == 2
    assert "DegreeBound: fraction expansion exceeds the degree cap" in err


@pytest.mark.parametrize(
    "template, spec",
    [("{}*[2]", "3"), ("[2]^{}", "3"), ("[2^{}]", "3"), ("[{}]", "3"), ("[{}]", "3(t)")],
)
def test_a_long_integer_literal_is_a_parse_error(capsys, template, spec):
    text = template.format("7" * 5000)
    code, err = _eval(capsys, text, spec)
    assert code == 2
    assert "error: ParseError: integer literal too long (5000 digits)" in err


def test_a_sum_without_denominators_is_one_polynomial(monkeypatch):
    from mwk.exprtext import parse_expr
    from mwk.fields import RatFuncField
    from mwk.symbols import SymExpr

    poly = Poly.make(F3, [1, 2, 0, 1])  # t^3 + 2t + 1, irreducible over F_3
    factored = []
    from_poly = RatFuncField.from_poly
    monkeypatch.setattr(
        RatFuncField, "from_poly", lambda rf, f: factored.append(f) or from_poly(rf, f)
    )
    assert parse_expr("[(t^3+2*t+1)]", RF3) == SymExpr.bracket(from_poly(RF3, poly))
    # the sum is read as one polynomial: no constant denominator is factored
    assert factored == [poly]
    # a sum with a denominator still expands into one fraction
    factored.clear()
    assert parse_unit("t^-1+1", RF3) == from_poly(RF3, Poly.make(F3, [1, 1])).mul(RF3.t_unit().inv())
    for text in ("[(t-t)]", "[(t^2+t-t-t^2)^-1]", "[t-t, t]"):
        with pytest.raises(ParseError, match="0 is not a unit"):
            parse_expr(text, RF3)
