"""Residue and specialization maps at places of F_q(t), and the complete
invariant they induce.

The symbolic residue map at a place is computed by exact rewriting: every
unit entry is split into uniformizer power times a local unit, the twisted
tensor and unit-power relations expand each term until every entry is either
the uniformizer or a local unit, and the defining properties of the residue
map (with the leading-unit sign rule and [pi, pi] = [pi, -1]) resolve each
term over the residue field.  The zero test evaluates the same maps straight
into the residue-field model by a linear scan: one closed-form step per entry
pi^e u, from its cached (e, [u-bar], eps [u-bar], c_e) with c_e the image of
[pi^e] = e_eps [pi].  The scan and the symbolic specialization never build
u: u-bar is reduced straight from the entry's factors, skipping P's own, to
an encoding, from which the scan reads [u-bar] without building u-bar.
The rewriting stays as the scan's independent oracle.

Zero testing uses the split short exact sequence for F(t): an element is
zero iff its specialization at t and all of its residues at finite places
vanish.  This is the authoritative equality oracle over F_q(t).  A component
in a trivial group (the specialization from degree 2 on, the residues from
degree 3 on) is read from the model as zero, and a term is scanned only at
the places where one of its entries has nonzero valuation, read from the
factored units.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    DegreeBound,
    FieldMismatch,
    Inhomogeneous,
    NotAUniformizer,
    PlaceMismatch,
)
from .fields import FFUnit, Place, RatFuncField
from .model import MW, MWElem, theory_group_is_trivial
from .symbols import SymExpr, _of, power_symbol

MAX_TERM_SIZE = 8

_CONTEXT_CACHE = {}


def valuation_context(place):
    """The cached ValuationContext of a place with its standard uniformizer
    (the rewrite caches persist across calls)."""
    ctx = _CONTEXT_CACHE.get(place)
    if ctx is None:
        ctx = ValuationContext(place)
        _CONTEXT_CACHE[place] = ctx
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
        data = rf.residue_data(place)
        self.kappa, self.reduce_unit = data.kappa, data.reduce_unit
        self._reduce_local = data.reduce_local
        # pi over the standard uniformizer, reduced (1 for the standard one)
        self._pi_bar = data.reduce_local(uniformizer)
        self._minus_one = rf.minus_one()
        self._eps_model = MWElem.eps(self.kappa)
        self._m1_model = MWElem.from_encoding(self.kappa, self.kappa.neg(1))
        self._eta_m1 = self._m1_model.eta_mul()
        self._expand_cache = {}
        self._residue_cache = {}
        self._entry_models = {}

    @cached_property
    def _eps_kappa(self):
        # built on first use by the symbolic residue, which the scan never calls
        return SymExpr.eps_elem(self.kappa)

    # -- entry expansion ----------------------------------------------------

    def _expand_unit(self, a):
        """[a] = [pi^e u] as a sum of terms whose entries are pi or local units."""
        found = self._expand_cache.get(a)
        if found is not None:
            return found
        e = a.valuation(self.place)
        if e == 0:
            out = SymExpr.bracket(a)
        else:
            pi_power = power_symbol(self.pi, e)
            u = a.mul(self.pi.pow(-e))
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

    # -- model-valued evaluation by a linear scan ------------------------------
    #
    # Each term is processed right to left through the pair (s, r) =
    # (specialization, residue) of its suffix product.  The defining
    # properties give s([u]x) = [u-bar] s, r([u]x) = eps [u-bar] r for a local
    # unit u, and s([pi]x) = 0, r([pi]x) = s + [-1-bar] r (multiplicativity of
    # s with s([pi]) = 0, then induction over monomials, closed by
    # [pi][pi] = [pi][-1] and eps[-1] = [-1]); eta passes through both.
    # [pi^e] = e_eps [pi] with e_eps = e + floor(e/2) eta[-1] for e >= 0 and
    # eps |e|_eps for e < 0, so r([pi^e]x) = c_e (s + [-1-bar] r) with c_e the
    # image of e_eps.  Expanding [pi^e u] = [pi^e] + [u] + eta [pi^e][u]:
    #   s' = [u-bar] s
    #   r' = eps [u-bar] r                                      if e == 0
    #   r' = c_e (s + [-1-bar] r) + eps [u-bar] r + eta c_e s'  otherwise
    # where the last term of r([pi^e][u]x) = c_e (s' + [-1-bar] eps [u-bar] r)
    # drops: [-1-bar] eps [u-bar] lies in K^MW_2 = 0 of the finite residue field.

    def _entry_model(self, a):
        """(e, [u-bar], eps [u-bar], c_e) for an entry a = pi^e u, once per
        entry: u-bar is reduced from a's own factors (`reduce_local`), and
        the square class and eps [u-bar] = [u-bar^-1] each cost a power;
        c_0 = 0 is held as None, which the e == 0 step skips."""
        found = self._entry_models.get(a)
        if found is None:
            e = a.valuation(self.place)
            ub = MWElem.from_encoding(self.kappa, self._reduce_local(a, self._pi_bar))
            c = None
            if e:
                c = MWElem.one(self.kappa).scale(abs(e)).add(self._eta_m1.scale(abs(e) // 2))
                c = self._eps_model.mul(c) if e < 0 else c
            found = self._entry_models[a] = (e, ub, self._eps_model.mul(ub), c)
        return found

    def _scan_term(self, d, units):
        m1 = self._m1_model
        # the empty product: specialization 1, residue the zero of degree -1
        s, r = MWElem.one(self.kappa), MWElem.zero(self.kappa, -1)
        for a in reversed(units):
            e, ub, eub, c = self._entry_model(a)
            s2 = ub.mul(s)
            if e == 0:
                r = eub.mul(r)
            else:
                r = c.mul(s.add(m1.mul(r))).add(eub.mul(r)).add(c.mul(s2).eta_mul())
            s = s2
        return s.eta_mul(d), r.eta_mul(d)

    def _scan(self, x, degree, half):
        """The sum of one half (0: specialization, 1: residue) of the scan."""
        if x.field is not self.rf:
            raise FieldMismatch("expression over a different function field")
        total = MWElem.zero(self.kappa, degree - half)
        for (d, units), coeff in x.terms.items():
            if len(units) - d != degree:
                raise Inhomogeneous("expression mixes degrees")
            total = total.add(self._scan_term(d, units)[half].scale(coeff))
        return total

    def residue_model(self, x, degree):
        """The residue evaluated straight into the residue-field model."""
        # independent oracle, kept on purpose: residue() computes the same map symbolically
        return self._scan(x, degree, 1)

    def specialize_model(self, x, degree):
        """The specialization evaluated straight into the residue-field model."""
        return self._scan(x, degree, 0)

    def specialize(self, x):
        """The graded ring map sending [pi^e u] to [u-bar] and eta to eta."""
        if x.field is not self.rf:
            raise FieldMismatch("expression over a different function field")
        total = SymExpr.zero(self.kappa)
        for (d, units), coeff in x.terms.items():
            term = SymExpr.const(self.kappa, coeff)
            for a in units:
                u_bar = FFUnit(self.kappa, self._reduce_local(a, self._pi_bar))
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
    degree over F_q(t).

    Only what can be nonzero is computed: the base (in K^MW_n(F_q)) and the
    residues (in K^MW_{n-1} of the residue fields) are read from the model as
    zero where those groups are trivial, and each term is scanned only at the
    places where one of its entries has nonzero valuation; at any other place
    every step of its scan multiplies the residue 0."""
    rf = x.field
    if not isinstance(rf, RatFuncField):
        raise FieldMismatch("canonical_form needs an expression over F_q(t)")
    if not x.is_structurally_zero() and x.degree() != degree:
        raise Inhomogeneous("stated degree does not match the expression")
    if theory_group_is_trivial(rf.base, MW, degree):
        base = MWElem.zero(rf.base, degree)  # kappa(t) = F_q
    else:
        t_place = Place._known(rf, rf.var_poly())  # t is irreducible
        base = valuation_context(t_place).specialize_model(x, degree)
    residues = {}
    if theory_group_is_trivial(rf.base, MW, degree - 1):
        return CanonicalForm(rf, degree, base, residues)
    parts = {}
    for key, coeff in x.terms.items():
        for p in {p: None for u in key[1] for p, _ in u.factors}:
            parts.setdefault(p, {})[key] = coeff
    for p, terms in parts.items():
        place = Place._known(rf, p)
        r = valuation_context(place).residue_model(_of(rf, terms), degree)
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
