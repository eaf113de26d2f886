"""Text syntax for expressions and units, with a bit-exact printer/parser
round trip.

Expression grammar (tokens separated by optional whitespace):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' int]
    atom   := INT | 'eta' | 'h' | 'eps' | '(' expr ')'
            | '[' unit (',' unit)* ']' | '<' unit '>'

Units over F_q are integers (canonical encodings) or powers of 'g', the
field's generator; units over F_q(t) are products of powers of polynomial
atoms in 't', e.g. "2*(t+1)^-1*(t^2+1)^3".
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import (
    FFUnit,
    Poly,
    RatFuncField,
    ff_build,
    ff_build_q,
    rat_func_field,
)
from .symbols import SymExpr

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\*|\+|-|\^|\(|\)|\[|\]|<|>|,)")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    out.append((None, len(text)))
    return out


class _Parser:
    def __init__(self, text, field):
        self.text = text
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0

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

    # -- expression level ---------------------------------------------------

    def parse_expr(self):
        negate = False
        if self.peek() == "-":
            self.next()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = acc.neg()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            term = self.parse_term()
            acc = acc.add(term if op == "+" else term.neg())
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() == "*":
            self.next()
            acc = acc.mul(self.parse_factor())
        return acc

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek() == "^":
            self.next()
            e = self.parse_int()
            if e < 0:
                raise ParseError("negative powers of expressions are not defined")
            atom = atom.pow(e)
        return atom

    def parse_int(self):
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if tok is None or not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}", pos)
        return sign * int(tok)

    def parse_atom(self):
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok.isdigit():
            return SymExpr.const(self.field, int(tok))
        if tok == "eta":
            return SymExpr.eta(self.field)
        if tok == "h":
            return SymExpr.h_elem(self.field)
        if tok == "eps":
            return SymExpr.eps_elem(self.field)
        if tok == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
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
        raise ParseError(f"unexpected token {tok!r}", pos)

    # -- unit level -----------------------------------------------------------

    def parse_unit(self):
        if isinstance(self.field, RatFuncField):
            product = self.parse_poly_expr()
            if any(p.is_zero() for p, _ in product):
                raise ParseError("0 is not a unit")
            unit = self.field.one_unit()
            for p, k in product:
                unit = unit.mul(self.field.from_poly(p).pow(k))
            return unit
        num, den = self.parse_ff_value()
        if num == 0 or den == 0:
            raise ParseError("0 is not a unit")
        if den != 1:
            return self.field.unit(num).mul(self.field.unit(den).inv())
        return self.field.unit(num)

    def parse_ff_value(self):
        num, den = self._parse_value_sum(self._parse_ff_atom)
        return num, den

    def _parse_ff_atom(self):
        tok, pos = self.next()
        if tok == "g":
            e = 1
            if self.peek() == "^":
                self.next()
                e = self.parse_int()
            u = self.field.gen_unit().pow(e)
            return (u.value, 1)
        if tok is not None and tok.isdigit():
            # Poly.make's rule: reduced mod p over F_p, and over F_{p^d} an
            # encoding in [0, q) or FieldMismatch
            const = Poly.const(self.field, int(tok)).coeffs
            return (const[0] if const else 0, 1)
        if tok == "(":
            inner = self._parse_value_sum(self._parse_ff_atom)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected unit token {tok!r}", pos)

    def parse_poly_expr(self):
        return self._parse_value_sum(self._parse_poly_atom)

    def _parse_poly_atom(self):
        base = self.field.base
        tok, pos = self.next()
        if tok == "t":
            return [(Poly.var(base), 1)]
        if tok is not None and tok.isdigit():
            return [(Poly.const(base, int(tok)), 1)]
        if tok == "(":
            inner = self._parse_value_sum(self._parse_poly_atom)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected unit token {tok!r}", pos)

    def _parse_value_sum(self, atom_parser):
        acc = None
        negate = self.peek() == "-"
        if negate:
            self.next()
        acc = self._parse_value_product(atom_parser)
        if negate:
            acc = self._value_neg(acc)
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self._parse_value_product(atom_parser)
            if op == "-":
                rhs = self._value_neg(rhs)
            acc = self._value_add(acc, rhs)
        return acc

    def _parse_value_product(self, atom_parser):
        acc = self._parse_value_power(atom_parser)
        while self.peek() == "*":
            self.next()
            acc = self._value_mul(acc, self._parse_value_power(atom_parser))
        return acc

    def _parse_value_power(self, atom_parser):
        base = atom_parser()
        if self.peek() == "^":
            self.next()
            e = self.parse_int()
            if isinstance(self.field, RatFuncField):
                return [(p, k * e) for p, k in base] if e else []
            num, den = base
            if e < 0:
                num, den = den, num
                e = -e
            out = (1, 1)
            for _ in range(e):
                out = self._value_mul(out, (num, den))
            return out
        return base

    # Value arithmetic.  Over F_q a value is a fraction (num, den) of
    # encodings.  Over F_q(t) it is a formal product [(Poly, exponent), ...]
    # with one entry per atom, so that parse_unit factors every atom on its
    # own; only a sum expands its terms, into one fraction.

    def _value_neg(self, v):
        if isinstance(self.field, RatFuncField):
            return v + [(Poly.const(self.field.base, 1).neg(), 1)]
        return (self.field.neg(v[0]), v[1])

    def _value_add(self, a, b):
        if isinstance(self.field, RatFuncField):
            (na, da), (nb, db) = self._expand(a), self._expand(b)
            return [(na.mul(db).add(nb.mul(da)), 1), (da.mul(db), -1)]
        F = self.field
        return (F.add(F.mul(a[0], b[1]), F.mul(b[0], a[1])), F.mul(a[1], b[1]))

    def _value_mul(self, a, b):
        if isinstance(self.field, RatFuncField):
            return a + b
        F = self.field
        return (F.mul(a[0], b[0]), F.mul(a[1], b[1]))

    def _expand(self, product):
        num = den = Poly.const(self.field.base, 1)
        for p, k in product:
            for _ in range(abs(k)):
                if k > 0:
                    num = num.mul(p)
                else:
                    den = den.mul(p)
        return num, den


def parse_expr(text, field):
    parser = _Parser(text, field)
    expr = parser.parse_expr()
    tok, pos = parser.tokens[parser.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return expr


def parse_unit(text, field):
    parser = _Parser(text, field)
    unit = parser.parse_unit()
    tok, pos = parser.tokens[parser.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return unit


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


def format_unit(u):
    if isinstance(u, FFUnit):
        return str(u.value)
    return format_rat_unit(u)


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
            parts.append("[" + ", ".join(format_unit(u) for u in units) + "]")
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
