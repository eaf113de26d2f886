"""Text syntax for expressions and units, with a bit-exact printer/parser
round trip.

Expressions and units share one grammar (tokens separated by optional
whitespace), over different atoms:

    sum     := ['-'] product (('+'|'-') product)*
    product := power ('*' power)*
    power   := atom ['^' int]
    atom    := '(' sum ')' | leaf

An expression leaf is INT, 'eta', 'h', 'eps', '[' unit (',' unit)* ']' or
'<' unit '>', and a unit is a sum over unit leaves.  Over F_q a unit leaf
is an integer (a canonical encoding) or 'g', the field's generator; over
F_q(t) it is an integer or 't', e.g. "2*(t+1)^-1*(t^2+1)^3".
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import (
    Poly,
    RatFuncField,
    _axpy,
    check_expansion,
    expand_fraction,
    ff_build,
    ff_build_q,
    rat_func_field,
)
from .symbols import SymExpr

_TOKEN = re.compile(r"([-*+^()\[\]<>,]|[A-Za-z]+)|([0-9]+)|(\S)")


def _tokenize(text):
    """(token, position) pairs, integer literals (ASCII digits only) as ints,
    ending in None."""
    out = []
    for m in _TOKEN.finditer(text):
        tok, pos = m.group(), m.start()
        if m.lastindex != 1:  # most tokens are operators and names
            if m.lastindex == 3:
                raise ParseError(f"unexpected character {tok!r}", pos)
            try:
                tok = int(tok)
            except ValueError:  # more digits than int() converts (4,300 by default)
                raise ParseError(f"integer literal too long ({len(tok)} digits)", pos) from None
        out.append((tok, pos))
    out.append((None, len(text)))
    return out


def _expr_power(x, e):
    if e < 0:
        raise ParseError("negative powers of expressions are not defined")
    return x.pow(e)


_EXPR_OPS = (SymExpr.add, SymExpr.neg, SymExpr.mul, _expr_power)


def _encoding_ops(field):
    """(add, neg, mul, pow) on unit values over F_q: encodings, 0 included."""

    def power(a, e):
        if a == 0 and e < 0:
            raise ParseError("0 is not a unit")
        return field.pow(a, e)

    return field.add, field.neg, field.mul, power


def _product(base, v):
    """A unit value over F_q(t) as a product (c, e, factors); a running sum
    becomes its one polynomial factor here."""
    if type(v) is list:
        return 1, 0, ((Poly._trimmed(base, v), 1),)
    return v


def _product_ops(base):
    """(add, neg, mul, pow) on unit values over F_q(t).  A product is a triple
    (c, e, factors): an encoding c of F_q (0 included) times t^e, e >= 0,
    times the formal product of the (Poly, k) in `factors`.  Integers and t
    multiply into c and e with no Poly, and a bare t^k stays a power; each
    parenthesised atom and each negative power of t is a factor of its own,
    so that parse_unit factors every atom on its own.  A sum is a
    coefficient list: monomials add coefficient-wise once the degree cap is
    checked on each, the list becomes one Poly once per atom (`_product`),
    and a term with other factors is expanded (`expand_fraction`)."""
    t, one = Poly.var(base), Poly.const(base, 1)

    def fraction(v):
        # (coefficient list, one) for a value with no denominator, else
        # (numerator, denominator), both Polys
        if type(v) is list:
            return v, one
        c, e, factors = v
        if not factors:
            check_expansion(e)
            return [0] * e + [c], one
        num, den = expand_fraction(base, c, factors + ((t, e),) if e else factors)
        return (list(num.coeffs), one) if den.is_one() else (num, den)

    def add(a, b):
        (na, da), (nb, db) = fraction(a), fraction(b)
        if da is db is one:
            return list(_axpy(base, na, nb, 1))
        na, nb = (Poly._trimmed(base, n) if type(n) is list else n for n in (na, nb))
        return 1, 0, ((na.mul(db).add(nb.mul(da)), 1), (da.mul(db), -1))

    def neg(v):
        c, e, factors = _product(base, v)
        return base.neg(c), e, factors

    def mul(a, b):
        (ca, ea, fa), (cb, eb, fb) = _product(base, a), _product(base, b)
        return base.mul(ca, cb), ea + eb, fa + fb

    def power(v, k):
        c, e, factors = _product(base, v)
        if k < 0:
            if c == 0 or any(p.is_zero() for p, _ in factors):
                raise ParseError("0 is not a unit")
            if e:  # t^-1 is a denominator, not a monomial
                e, factors = 0, factors + ((t, e),)
        if not k:
            return 1, 0, ()
        return base.pow(c, k), e * k, tuple((p, j * k) for p, j in factors)

    return add, neg, mul, power


class _Parser:
    def __init__(self, text, field):
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0
        if isinstance(field, RatFuncField):
            self.unit_leaf, self.unit_ops = self._poly_leaf, _product_ops(field.base)
        else:
            self.unit_leaf, self.unit_ops = self._encoding_leaf, _encoding_ops(field)

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, token):
        got, pos = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, found {got!r}", pos)

    def parse_int(self):
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not isinstance(tok, int):
            raise ParseError(f"expected an integer, found {tok!r}", pos)
        return sign * tok

    # -- the grammar, over any leaves and values -----------------------------

    def parse_sum(self, leaf, ops):
        """sum := ['-'] product (('+'|'-') product)*, the values read by
        `leaf` and combined by ops = (add, neg, mul, pow)."""
        add, neg, mul, _ = ops
        sign = self.next()[0] if self.peek() == "-" else "+"
        acc = None
        while True:
            term = self._parse_power(leaf, ops)
            while self.peek() == "*":
                self.next()
                term = mul(term, self._parse_power(leaf, ops))
            if sign == "-":
                term = neg(term)
            acc = term if acc is None else add(acc, term)
            if self.peek() not in ("+", "-"):
                return acc
            sign = self.next()[0]

    def _parse_power(self, leaf, ops):
        if self.peek() == "(":
            self.next()
            base = self.parse_sum(leaf, ops)
            self.expect(")")
        else:
            base = leaf()
        if self.peek() != "^":
            return base
        self.next()
        return ops[3](base, self.parse_int())

    # -- expressions, units and their leaves -----------------------------------

    def parse_expr(self):
        return self.parse_sum(self._expr_leaf, _EXPR_OPS)

    def _expr_leaf(self):
        tok, pos = self.next()
        if isinstance(tok, int):
            return SymExpr.const(self.field, tok)
        if tok == "eta":
            return SymExpr.eta(self.field)
        if tok == "h":
            return SymExpr.h_elem(self.field)
        if tok == "eps":
            return SymExpr.eps_elem(self.field)
        if tok == "[":
            units = [self.parse_unit()]
            while self.peek() == ",":
                self.next()
                units.append(self.parse_unit())
            self.expect("]")
            return SymExpr.bracket(*units)
        if tok == "<":
            unit = self.parse_unit()
            self.expect(">")
            return SymExpr.angle(unit)
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {tok!r}", pos)

    def parse_unit(self):
        value = self.parse_sum(self.unit_leaf, self.unit_ops)
        if not isinstance(self.field, RatFuncField):
            if value == 0:
                raise ParseError("0 is not a unit")
            return self.field.unit(value)
        rf = self.field
        c, e, factors = _product(rf.base, value)
        if c == 0 or any(p.is_zero() for p, _ in factors):
            raise ParseError("0 is not a unit")
        unit = rf.constant(c)
        if e:
            unit = unit.mul(rf.t_unit().pow(e))
        for p, k in factors:
            unit = unit.mul(rf.from_poly(p).pow(k))
        return unit

    def _encoding_leaf(self):
        tok, pos = self.next()
        if tok == "g":
            return self.field.generator
        if isinstance(tok, int):
            return self.field.coefficient(tok)
        raise ParseError(f"unexpected unit token {tok!r}", pos)

    def _poly_leaf(self):
        tok, pos = self.next()
        if tok == "t":
            return 1, 1, ()
        if isinstance(tok, int):
            return self.field.base.coefficient(tok), 0, ()
        raise ParseError(f"unexpected unit token {tok!r}", pos)


def _parse_all(text, field, read):
    """read(parser) over the whole text: trailing input is a ParseError."""
    parser = _Parser(text, field)
    value = read(parser)
    tok, pos = parser.tokens[parser.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return value


def parse_expr(text, field):
    return _parse_all(text, field, _Parser.parse_expr)


def parse_unit(text, field):
    return _parse_all(text, field, _Parser.parse_unit)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def format_poly(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for i in range(poly.degree, -1, -1):
        c = poly.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(parts)


def _format_unit_factor(poly, e):
    body = format_poly(poly)
    bare = body == "t"
    text = body if bare else f"({body})"
    return text if e == 1 else f"{text}^{e}"


def format_rat_unit(u):
    const = u.const
    if const == 1 and len(u.factors) == 1 and u.factors[0][1] == 1:
        return format_poly(u.factors[0][0])
    parts = []
    if const != 1 or not u.factors:
        parts.append(str(const))
    parts.extend(_format_unit_factor(p, e) for p, e in u.factors)
    return "*".join(parts)


def format_expr(expr):
    if expr.is_structurally_zero():
        return "0"
    chunks = []
    for (d, units), coeff in expr.sorted_terms():
        parts = []
        mag = abs(coeff)
        if d:
            parts.append("eta" if d == 1 else f"eta^{d}")
        if units:
            parts.append("[" + ", ".join(map(str, units)) + "]")
        if mag != 1 or not parts:
            parts.insert(0, str(mag))
        body = "*".join(parts)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# field specifications ("3", "3,2", "9", "3(t)", "3,2(t)")
# ---------------------------------------------------------------------------


def parse_field_spec(spec):
    text = spec.strip()
    rational = text.endswith("(t)")
    if rational:
        text = text[: -len("(t)")]
    try:
        numbers = [int(part) for part in text.split(",")]
    except ValueError:
        numbers = []
    if not 1 <= len(numbers) <= 2:
        raise ParseError(f"malformed field spec {spec!r}: expected q, p,d, q(t) or p,d(t)")
    field = ff_build(*numbers) if len(numbers) == 2 else ff_build_q(numbers[0])
    return rat_func_field(field) if rational else field


def format_field_spec(field):
    if isinstance(field, RatFuncField):
        return format_field_spec(field.base) + "(t)"
    if field.d == 1:
        return str(field.p)
    return f"{field.p},{field.d}"
