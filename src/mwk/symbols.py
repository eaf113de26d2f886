"""The free graded ring of symbols eta^d [a_1, ..., a_r].

Expressions are exact integer combinations of terms (eta power, ordered unit
tuple).  The eta power is stored separately per term, so centrality of eta is
structural; the unit lists stay ordered because the ring is non-commutative
before evaluation.  No relations are imposed here: equality modulo the
defining relations is delegated to the closed-form model over F_q and to the
valuation oracle over F_q(t).

Only the public constructor `SymExpr(field, terms)` merges like terms and
drops zero coefficients.  The ring operations already produce distinct keys
with nonzero coefficients, so, like `MWElem` arithmetic, they hand their
merged dict over unchecked (`_of`), which keeps the dict it is given.
Since nothing re-merges a result, a `SymExpr` caches its hash and a
`RatFuncUnit` is interned on its data (hashing by identity), neither a term
dict nor a unit may ever be changed in place.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .errors import DegreeBound, FieldMismatch, Inhomogeneous
from .fields import FFUnit, FiniteField, Place, Poly, RatFuncField


class SymExpr:
    """An integer combination of terms eta^d [a_1, ..., a_r] over one field.

    terms maps (d, units tuple) to a nonzero integer coefficient.  The
    constructor merges like terms and drops zero coefficients of any input;
    the ring operations build their results unchecked through `_of`.  The
    dict is never changed after construction, so the hash is computed on
    first use and kept in `_hash`, which `__init__` and `_of` leave unset.
    """

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field, terms=None):
        self.field = field
        merged = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                if coeff:
                    newc = merged.get(key, 0) + coeff
                    if newc:
                        merged[key] = newc
                    else:
                        del merged[key]
        self.terms = merged

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field):
        return SymExpr(field)

    @staticmethod
    def const(field, c):
        return SymExpr(field, {(0, ()): c} if c else None)

    @staticmethod
    def one(field):
        return SymExpr.const(field, 1)

    @staticmethod
    def eta(field, power=1):
        return SymExpr(field, {(power, ()): 1})

    @staticmethod
    def bracket(*units):
        """The pure symbol [a_1, ..., a_r]."""
        if not units:
            raise ValueError("bracket needs at least one unit")
        field = units[0].field
        for u in units[1:]:
            if u.field is not field:
                raise FieldMismatch("bracket entries from different fields")
        return SymExpr(field, {(0, tuple(units)): 1})

    @staticmethod
    def angle(a):
        """The unit form <a> = 1 + eta [a]."""
        field = a.field
        return SymExpr(field, {(0, ()): 1, (1, (a,)): 1})

    @staticmethod
    def h_elem(field):
        """h = <1> + <-1> = 2 + eta [-1]."""
        return SymExpr(field, {(0, ()): 2, (1, (field.minus_one(),)): 1})

    @staticmethod
    def eps_elem(field):
        """eps = -<-1> = -1 - eta [-1]."""
        return SymExpr(field, {(0, ()): -1, (1, (field.minus_one(),)): -1})

    # -- ring structure ------------------------------------------------------

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            newc = out.get(key, 0) + sign * c
            if newc:
                out[key] = newc
            else:
                del out[key]
        return _of(self.field, out)

    def neg(self):
        return _of(self.field, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return _of(self.field, {})
        return _of(self.field, {k: c * v for k, v in self.terms.items()})

    def mul(self, other):
        self._check(other)
        out = {}
        for (d1, u1), c1 in self.terms.items():
            for (d2, u2), c2 in other.terms.items():
                key = (d1 + d2, u1 + u2)
                newc = out.get(key, 0) + c1 * c2
                if newc:
                    out[key] = newc
                else:
                    del out[key]
        return _of(self.field, out)

    def eta_mul(self, power=1):
        """Multiply by eta^power (eta is central by the third defining relation)."""
        return _of(self.field, {(d + power, u): c for (d, u), c in self.terms.items()})

    def pow(self, e):
        if e < 0:
            raise ValueError("negative symbolic powers are not defined")
        out, square = SymExpr.one(self.field), self
        while e:
            if e & 1:
                out = out.mul(square)
            e >>= 1
            if e:
                square = square.mul(square)
        return out

    def _check(self, other):
        if other.field is not self.field:
            raise FieldMismatch("expressions over different fields")

    # -- inspection ----------------------------------------------------------

    def is_structurally_zero(self):
        return not self.terms

    def term_degrees(self):
        return {len(u) - d for (d, u) in self.terms}

    def degree(self, default=None):
        degs = self.term_degrees()
        if not degs:
            return default
        if len(degs) > 1:
            raise Inhomogeneous(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def max_term_size(self):
        return max((len(u) + d for (d, u) in self.terms), default=0)

    def support_places(self):
        """All finite places appearing in the factorization of any unit entry."""
        assert isinstance(self.field, RatFuncField)
        seen = {}
        for (_, units) in self.terms:
            for u in units:
                for p, _ in u.factors:
                    seen[p] = True
        return [Place._known(self.field, p) for p in seen]

    def map_units(self, fn, new_field):
        """Apply fn to every unit entry, producing an expression over new_field."""
        return SymExpr(
            new_field,
            [((d, tuple(fn(u) for u in units)), c) for (d, units), c in self.terms.items()],
        )

    def sorted_terms(self):
        def key(item):
            (d, units), _ = item
            return (len(units) - d, d, tuple(_unit_sort_key(u) for u in units))

        return sorted(self.terms.items(), key=key)

    def __eq__(self, other):
        return (
            isinstance(other, SymExpr)
            and other.field is self.field
            and other.terms == self.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((id(self.field), frozenset(self.terms.items())))
            return h

    def __str__(self):
        from .exprtext import format_expr

        return format_expr(self)

    __repr__ = __str__


_new = object.__new__


def _of(field, terms):
    """The expression with the given terms, unchecked: the caller passes a
    dict with only nonzero coefficients that nothing else holds (every ring
    operation's result is one)."""
    x = _new(SymExpr)
    x.field = field
    x.terms = terms
    return x


def _unit_sort_key(u):
    if isinstance(u, FFUnit):
        return (0, u.value)
    return (1, u.const, tuple((p.coeffs, e) for p, e in u.factors))


def embed_expr(expr, target_field):
    """Embed an expression over F_q into F_{q^k} or into F_q(t)."""
    src = expr.field
    if target_field is src:
        return expr
    if isinstance(target_field, RatFuncField):
        if isinstance(src, RatFuncField):
            raise FieldMismatch("cannot embed one function field in another")
        base = target_field.base
        return expr.map_units(
            lambda u: target_field.constant(u.embed(base)), target_field
        )
    if isinstance(src, FiniteField) and isinstance(target_field, FiniteField):
        return expr.map_units(lambda u: u.embed(target_field), target_field)
    raise FieldMismatch("unsupported embedding")


# ---------------------------------------------------------------------------
# constructors for the standard elements and rewrite helpers
# ---------------------------------------------------------------------------


def power_symbol(a, e):
    """[a^e] expanded by the unit-power relation.

    For e > 0 this is sum_{i<e} <(-1)^i> [a]; for e < 0 it is eps times the
    corresponding sum for -e; for e = 0 it is the empty expression.
    Exact products are kept in the written order ([-1] precedes [a]).
    """
    field = a.field
    if e == 0:
        return SymExpr.zero(field)
    mag = abs(e)
    m1 = field.minus_one()
    terms = {(0, (a,)): mag}
    odd = mag // 2
    if odd:
        terms[(1, (m1, a))] = odd
    expr = SymExpr(field, terms)
    if e < 0:
        expr = SymExpr.eps_elem(field).mul(expr)
    return expr


def rewrite_mw2(a, b):
    """[a] + [b] + eta [a][b]; evaluates equal to [ab]."""
    field = a.field
    return SymExpr(field, [((0, (a,)), 1), ((0, (b,)), 1), ((1, (a, b)), 1)])


def eta_reduce(expr):
    """Rewrite a positive-degree expression as a combination of pure symbols.

    Each eta is absorbed by splitting the first two entries through the
    product relation, eta [a][b] = [ab] - [a] - [b]; every step is an exact
    identity, so the class is unchanged.  Requires every term to keep at
    least two entries while eta powers remain (degree >= 1)."""
    field = expr.field
    out = {}
    stack = [((d, units), c) for (d, units), c in expr.terms.items()]
    while stack:
        (d, units), c = stack.pop()
        if not c:
            continue
        if d == 0:
            out[(0, units)] = out.get((0, units), 0) + c
            continue
        if len(units) < 2:
            raise Inhomogeneous("cannot reduce eta terms of nonpositive degree")
        a, b, rest = units[0], units[1], units[2:]
        stack.append(((d - 1, (a.mul(b),) + rest), c))
        stack.append(((d - 1, (a,) + rest), -c))
        stack.append(((d - 1, (b,) + rest), -c))
    return SymExpr(field, out)


# ---------------------------------------------------------------------------
# relation generators of the standard presentation
# ---------------------------------------------------------------------------


def steinberg_generator(d, units):
    """eta^d [a_1, ..., a_r] with some adjacent pair summing to 1."""
    field = units[0].field
    return SymExpr(field, {(d, tuple(units)): 1})


def twisted_tensor_generator(d, prefix, b, bp, suffix):
    """The three-term difference expressing [.. b b' ..] via [.. b ..], [.. b' ..]."""
    field = b.field
    prefix, suffix = tuple(prefix), tuple(suffix)
    return SymExpr(
        field,
        [
            ((d, prefix + (b.mul(bp),) + suffix), 1),
            ((d, prefix + (b,) + suffix), -1),
            ((d, prefix + (bp,) + suffix), -1),
            ((d + 1, prefix + (b, bp) + suffix), -1),
        ],
    )


def witt_generator(e, units, position):
    """2 eta^e [units] + eta^{e+1} [units with -1 inserted at position]."""
    field = units[0].field
    units = tuple(units)
    inserted = units[:position] + (field.minus_one(),) + units[position:]
    return SymExpr(field, [((e, units), 2), ((e + 1, inserted), 1)])


def _ff_unit_pairs_summing_to_one(field):
    """(a, 1 - a) for the units a != 1 of F_q (encoding 1 is the unit 1)."""
    return [(a, one_minus(a)) for a in map(field.unit, range(2, field.q))]


# largest instance space of a relation family that is enumerated in full
EXHAUSTIVE_BOUND = 2000


def relation_generators(field, n, d_max, rng, per_family, sampler):
    """Yield (kind, SymExpr) pairs that are zero in degree-n Milnor-Witt K-theory.

    Over a finite field, a family whose free-entry count keeps the instance
    space within EXHAUSTIVE_BOUND is enumerated completely; otherwise (and
    always over F_q(t)) per_family instances are drawn, with unit entries
    from the sampler.  Kinds are "steinberg", "twisted_tensor" and "witt".
    Each (family, eta level) is a stream, and the streams take turns, so
    that a caller who stops early still sees every family."""
    if n < 0:
        raise DegreeBound("relation generators need degree >= 0")
    finite = isinstance(field, FiniteField)

    def units_for(count):
        return tuple(sampler() for _ in range(count))

    def exhaustive(count):
        return finite and (field.q - 1) ** max(count, 1) <= EXHAUSTIVE_BOUND

    def steinberg(d, r):  # an adjacent pair (a, 1-a) somewhere in the tuple
        if exhaustive(r - 2):
            pairs = _ff_unit_pairs_summing_to_one(field)
            for i in range(r - 1):
                for (a, b) in pairs:
                    for rest in product(field.units(), repeat=r - 2):
                        units = rest[:i] + (a, b) + rest[i:]
                        yield "steinberg", steinberg_generator(d, units)
        else:
            for _ in range(per_family):
                pair = _sample_steinberg_pair(sampler)
                if pair is None:
                    continue
                i = rng.randrange(r - 1)
                rest = units_for(r - 2)
                units = rest[:i] + pair + rest[i:]
                yield "steinberg", steinberg_generator(d, units)

    def twisted_tensor(d, r):  # split one entry as a product b * b'
        if exhaustive(r + 1):
            for i in range(r):
                for rest in product(field.units(), repeat=r - 1):
                    for b, bp in product(field.units(), repeat=2):
                        yield "twisted_tensor", twisted_tensor_generator(
                            d, rest[:i], b, bp, rest[i:]
                        )
        else:
            for _ in range(per_family):
                i = rng.randrange(r)
                pre = units_for(i)
                suf = units_for(r - 1 - i)
                yield "twisted_tensor", twisted_tensor_generator(
                    d, pre, sampler(), sampler(), suf
                )

    def witt(e, r):  # twice an eta-level generator plus the -1-inserted one above it
        if exhaustive(r):
            for units in product(field.units(), repeat=r):
                for pos in range(r + 1):
                    yield "witt", witt_generator(e, units, pos)
        else:
            for _ in range(per_family):
                units = units_for(r)
                pos = rng.randrange(r + 1)
                yield "witt", witt_generator(e, units, pos)

    streams = deque(steinberg(d, n + d) for d in range(d_max + 1) if n + d >= 2)
    streams.extend(twisted_tensor(d, n + d) for d in range(d_max) if n + d >= 1)
    streams.extend(witt(e, n + e) for e in range(1, d_max) if n + e >= 1)
    while streams:
        stream = streams.popleft()
        item = next(stream, None)
        if item is not None:
            yield item
            streams.append(stream)


def _sample_steinberg_pair(sampler):
    """A pair (a, 1-a) of units, drawn through the sampler (None after 50
    draws of a = 1)."""
    for _ in range(50):
        a = sampler()
        b = one_minus(a)
        if b is not None:
            return (a, b)
    return None


def one_minus(a):
    """1 - a as a unit, or None if a = 1."""
    if isinstance(a, FFUnit):
        v = a.field.sub(1, a.value)
        return None if v == 0 else a.field.unit(v)
    num, den = a.to_fraction()
    diff = den.sub(num)
    if diff.is_zero():
        return None
    return a.rf.from_fraction(diff, den)


def unit_sampler(field, rng, max_degree=2):
    """A function drawing random units of F_q, or of F_q(t) as a ratio of
    polynomials of degree at most max_degree (a denominator 30% of the time)."""
    if isinstance(field, FiniteField):
        return lambda: field.unit_exp(rng.randrange(field.q - 1))
    base = field.base

    def sample():
        while True:
            deg = rng.randrange(0, max_degree + 1)
            num = Poly.make(base, [rng.randrange(base.q) for _ in range(deg + 1)])
            if num.is_zero():
                continue
            if rng.random() < 0.3:
                dend = rng.randrange(1, max_degree + 1)
                den = Poly.make(base, [rng.randrange(base.q) for _ in range(dend + 1)])
                if den.is_zero():
                    continue
                return field.from_fraction(num, den)
            return field.from_poly(num)

    return sample
