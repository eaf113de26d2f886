"""Residue and specialization maps at places of F_q(t), and the complete
invariant they induce.

The residue map at a place is computed by exact rewriting: every unit entry
is split into uniformizer power times a local unit, the twisted tensor and
unit-power relations expand each term until every entry is either the
uniformizer or a local unit, and the defining properties of the residue map
(together with the leading-unit sign rule and the repeated-uniformizer
reduction [pi, pi] = [pi, -1]) resolve each term into an expression over the
residue field.  Every rewriting step is an exact identity, so the result
only depends on the class of the input.

Zero testing uses the split short exact sequence for F(t): an element is
zero iff its specialization at t and all of its residues at finite places
vanish.  This is the authoritative equality oracle over F_q(t).
"""

from __future__ import annotations

from .errors import (
    DegreeBound,
    FieldMismatch,
    Inhomogeneous,
    NotAUniformizer,
    PlaceMismatch,
)
from .fields import Place, RatFuncField, residue_field
from .model import MW, MWElem
from .symbols import SymExpr, power_symbol

MAX_TERM_SIZE = 8

_CONTEXT_CACHE = {}


def valuation_context(place):
    """The cached ValuationContext of a place with its standard uniformizer
    (the rewrite caches persist across calls)."""
    key = (id(place.rf), place)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = ValuationContext(place)
        _CONTEXT_CACHE[key] = ctx
    return ctx


class ValuationContext:
    """Residue and specialization at one place with one uniformizer."""

    def __init__(self, place, uniformizer=None):
        rf = place.rf
        if uniformizer is None:
            uniformizer = place.uniformizer()
        if uniformizer.rf is not rf:
            raise PlaceMismatch("uniformizer from a different function field")
        if uniformizer.valuation(place) != 1:
            raise NotAUniformizer(f"{uniformizer} has valuation != 1 at {place}")
        self.rf = rf
        self.place = place
        self.pi = uniformizer
        self.kappa, self.reduce_unit = residue_field(place)
        self._minus_one = rf.minus_one()
        self._eps_kappa = SymExpr.eps_elem(self.kappa)
        self._eps_model = MWElem.eps(self.kappa)
        self._m1_model = MWElem.from_unit(self.kappa.minus_one())
        self._eps_m1k = self._eps_model.mul(self._m1_model)
        self._expand_cache = {}
        self._residue_cache = {}
        self._unit_models = {}

    # -- entry expansion ----------------------------------------------------

    def split(self, a):
        """a = pi^e * u with u a local unit; returns (e, u)."""
        e = a.valuation(self.place)
        u = a.mul(self.pi.pow(-e)) if e else a
        return e, u

    def _expand_unit(self, a):
        """[a] as a sum of terms whose entries are pi or local units."""
        found = self._expand_cache.get(a)
        if found is not None:
            return found
        e, u = self.split(a)
        if e == 0:
            out = SymExpr.bracket(u)
        else:
            pi_power = power_symbol(self.pi, e)
            if u.is_one():
                out = pi_power
            else:
                bu = SymExpr.bracket(u)
                out = pi_power.add(bu).add(pi_power.mul(bu).eta_mul())
        self._expand_cache[a] = out
        return out

    # -- the residue homomorphism --------------------------------------------

    def residue(self, x):
        """The residue of a symbolic expression, over the residue field."""
        if x.field is not self.rf:
            raise FieldMismatch("expression over a different function field")
        if x.max_term_size() > MAX_TERM_SIZE:
            raise DegreeBound(f"term size exceeds {MAX_TERM_SIZE}")
        total = SymExpr.zero(self.kappa)
        for (d, units), coeff in x.terms.items():
            expanded = SymExpr.const(self.rf, 1)
            for a in units:
                expanded = expanded.mul(self._expand_unit(a))
            for (d2, entries), c2 in expanded.terms.items():
                res = self._residue_entries(entries)
                if not res.is_structurally_zero():
                    total = total.add(res.eta_mul(d + d2).scale(coeff * c2))
        return total

    def _residue_entries(self, entries):
        """Residue of [entries], each entry the uniformizer or a local unit.

        Recursion over exact identities: a leading local unit u is stripped
        with the sign rule (contributing eps [u-bar]); a second uniformizer
        occurrence is moved left by one slot via [c, pi] = -[pi, c] -
        eta [pi, c, -1], and adjacent uniformizers reduce by
        [pi, pi] = [pi, -1]; a single leading uniformizer resolves by the
        defining property.
        """
        found = self._residue_cache.get(entries)
        if found is not None:
            return found
        pi = self.pi
        kappa = self.kappa
        if pi not in entries:
            out = SymExpr.zero(kappa)
        elif entries[0] != pi:
            u_bar = self.reduce_unit(entries[0])
            rest = self._residue_entries(entries[1:])
            if rest.is_structurally_zero():
                out = SymExpr.zero(kappa)
            else:
                out = self._eps_kappa.mul(SymExpr.bracket(u_bar)).mul(rest)
        else:
            rest = entries[1:]
            if pi not in rest:
                if rest:
                    out = SymExpr.bracket(*(self.reduce_unit(u) for u in rest))
                else:
                    out = SymExpr.one(kappa)
            else:
                j = 1 + rest.index(pi)  # position of the second uniformizer
                if j == 1:
                    out = self._residue_entries((pi, self._minus_one) + entries[2:])
                else:
                    c = entries[j - 1]
                    swapped = entries[: j - 1] + (pi, c) + entries[j + 1 :]
                    witted = (
                        entries[: j - 1]
                        + (pi, c, self._minus_one)
                        + entries[j + 1 :]
                    )
                    out = (
                        self._residue_entries(swapped)
                        .add(self._residue_entries(witted).eta_mul())
                        .neg()
                    )
        self._residue_cache[entries] = out
        return out

    def _unit_model(self, u):
        """([u-bar], eps [u-bar]) in the residue-field model for a local unit
        u, computed once per unit: over F_q[t]/(P) the square class and the
        inverse in eps [u-bar] = [u-bar^-1] each cost a power."""
        found = self._unit_models.get(u)
        if found is None:
            ub = MWElem.from_unit(self.reduce_unit(u))
            found = self._unit_models[u] = (ub, self._eps_model.mul(ub))
        return found

    # -- model-valued evaluation by a linear scan ------------------------------
    #
    # Each term is processed right to left through the pair
    # (specialization, residue) of its suffix product.  The prepend rules
    # are exact consequences of the defining properties:
    #   s([u]x) = [u-bar] s(x),   d([u]x) = eps [u-bar] d(x)
    #   s(eta x) = eta s(x),      d(eta x) = eta d(x)
    #   s([pi]x) = 0,             d([pi]x) = s(x) + [-1-bar] d(x)
    # The third line follows from multiplicativity of s with s([pi]) = 0,
    # and by induction over monomials in local units and the uniformizer
    # (the [pi][pi] = [pi][-1] and eps[-1] = [-1] reductions close the
    # induction).  One pass costs O(length) exact pair operations.

    def _pair_prepend_unit(self, u_bar_elem, eps_u_bar, pair):
        s, d = pair
        return (u_bar_elem.mul(s), eps_u_bar.mul(d))

    def _pair_prepend_pi(self, pair):
        s, d = pair
        return (MWElem.zero(self.kappa, s.degree + 1), s.add(self._m1_model.mul(d)))

    def _pair_prepend_eta(self, pair):
        s, d = pair
        return (s.eta_mul(), d.eta_mul())

    def _pair_add(self, a, b):
        return (a[0].add(b[0]), a[1].add(b[1]))

    def _pair_scale(self, pair, c):
        s, d = pair
        return (s.scale(c), d.scale(c))

    def _pair_prepend_pi_power(self, e, pair):
        """[pi^e] . x  via  e [pi] + floor(e/2) eta [-1][pi]  (eps-twisted
        for negative e)."""
        mag = abs(e)
        base = self._pair_prepend_pi(pair)
        out = self._pair_scale(base, mag)
        if mag // 2:
            tw = self._pair_prepend_eta(
                self._pair_prepend_unit(self._m1_model, self._eps_m1k, base)
            )
            out = self._pair_add(out, self._pair_scale(tw, mag // 2))
        if e < 0:
            # eps z = -z - eta [-1] z
            twisted = self._pair_prepend_eta(
                self._pair_prepend_unit(self._m1_model, self._eps_m1k, out)
            )
            out = self._pair_scale(self._pair_add(out, twisted), -1)
        return out

    def _pair_prepend_entry(self, a, pair):
        """[a] . x with a = pi^e u:  [pi^e]x + [u]x + eta [pi^e][u]x."""
        e, u = self.split(a)
        if e == 0:
            return self._pair_prepend_unit(*self._unit_model(u), pair)
        pw = self._pair_prepend_pi_power(e, pair)
        if u.is_one():
            return pw
        us = self._pair_prepend_unit(*self._unit_model(u), pair)
        out = self._pair_add(pw, us)
        return self._pair_add(
            out, self._pair_prepend_eta(self._pair_prepend_pi_power(e, us))
        )

    def _scan_term(self, d, units):
        # the empty product: specialization 1, residue the zero of degree -1
        pair = (MWElem.one(self.kappa), MWElem.zero(self.kappa, -1))
        for a in reversed(units):
            pair = self._pair_prepend_entry(a, pair)
        s, dd = pair
        return (s.eta_mul(d), dd.eta_mul(d))

    def residue_model(self, x, degree):
        """The residue evaluated straight into the residue-field model."""
        # independent oracle, kept on purpose: residue() computes the same map symbolically
        if x.field is not self.rf:
            raise FieldMismatch("expression over a different function field")
        total = MWElem.zero(self.kappa, degree - 1)
        for (d, units), coeff in x.terms.items():
            if len(units) - d != degree:
                raise Inhomogeneous("expression mixes degrees")
            _, res = self._scan_term(d, units)
            total = total.add(res.scale(coeff))
        return total

    def specialize_model(self, x, degree):
        """The specialization evaluated straight into the residue-field model."""
        total = MWElem.zero(self.kappa, degree)
        for (d, units), coeff in x.terms.items():
            if len(units) - d != degree:
                raise Inhomogeneous("expression mixes degrees")
            term = MWElem.one(self.kappa)
            for a in units:
                _, u = self.split(a)
                term = term.mul(self._unit_model(u)[0])
            total = total.add(term.eta_mul(d).scale(coeff))
        return total

    def specialize(self, x):
        """The graded ring map sending [pi^e u] to [u-bar] and eta to eta."""
        if x.field is not self.rf:
            raise FieldMismatch("expression over a different function field")
        total = SymExpr.zero(self.kappa)
        for (d, units), coeff in x.terms.items():
            term = SymExpr.const(self.kappa, coeff)
            for a in units:
                _, u = self.split(a)
                u_bar = self.reduce_unit(u)
                term = term.mul(SymExpr.bracket(u_bar))
            total = total.add(term.eta_mul(d))
        return total

    def specialize_via_residue(self, x):
        """The composite definition <-1-bar> * residue([-pi] * x)."""
        shifted = SymExpr.bracket(self.pi.negate()).mul(x)
        res = self.residue(shifted)
        return SymExpr.angle(self.kappa.minus_one()).mul(res)


def residue(x, place):
    return valuation_context(place).residue(x)


def specialize(x, place):
    return valuation_context(place).specialize(x)


# ---------------------------------------------------------------------------
# the complete invariant
# ---------------------------------------------------------------------------


class CanonicalForm:
    """Specialization at t plus all nonzero residues at finite places.

    By the split short exact sequence this is a complete invariant of the
    class of the input in degree-n Milnor-Witt K-theory of F_q(t).
    """

    __slots__ = ("rf", "degree", "base", "residues")

    def __init__(self, rf, degree, base, residues):
        self.rf = rf
        self.degree = degree
        self.base = base
        self.residues = residues  # {Place: MWElem over the residue field}

    def is_zero(self, theory=MW):
        if not self.base.is_zero_in(theory):
            return False
        return all(v.is_zero_in(theory) for v in self.residues.values())

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalForm)
            and other.rf is self.rf
            and other.degree == self.degree
            and other.base == self.base
            and other.residues == self.residues
        )

    def __repr__(self):
        parts = ", ".join(f"{p}: {v!r}" for p, v in sorted_residues(self.residues))
        return f"CanonicalForm(deg={self.degree}, base={self.base!r}, residues={{{parts}}})"

    def to_json(self):
        return {
            "degree": self.degree,
            "base": self.base.to_json(),
            "residues": [
                [str(place), value.to_json()]
                for place, value in sorted_residues(self.residues)
            ],
        }


def sorted_residues(residues):
    return sorted(residues.items(), key=lambda kv: (kv[0].degree, str(kv[0])))


def canonical_form(x, degree):
    """The complete invariant of a homogeneous expression of the given
    degree over F_q(t)."""
    rf = x.field
    if not isinstance(rf, RatFuncField):
        raise FieldMismatch("canonical_form needs an expression over F_q(t)")
    if not x.is_structurally_zero() and x.degree() != degree:
        raise Inhomogeneous("stated degree does not match the expression")
    t_place = Place(rf, rf.var_poly())
    places = {t_place: True}
    for p in x.support_places():
        places[p] = True
    base = valuation_context(t_place).specialize_model(x, degree)
    residues = {}
    for place in places:
        r = valuation_context(place).residue_model(x, degree)
        if not r.is_zero():
            residues[place] = r
    return CanonicalForm(rf, degree, base, residues)


def is_zero(x, degree, theory=MW):
    """Authoritative equality-with-zero test over F_q(t)."""
    if x.is_structurally_zero():
        return True
    return canonical_form(x, degree).is_zero(theory)


def equal(x, y, degree, theory=MW):
    return is_zero(x.sub(y), degree, theory)
