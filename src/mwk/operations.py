"""The operation calculus: divided powers via the truncated generating
series, the twisted combinations sigma and f, coefficient sequences with
their shift transforms, and the executable admissibility table.

Values are computed through one of two interchangeable oracles: the
closed-form model over F_q (exact pairs), or symbolic expressions over
F_q(t) compared through the valuation oracle.  An oracle supplies three
things: the lift of a base-field value (`from_base`), brackets of units
(`bracket`) and a zero test (`is_zero`); its one, its zeros and the
twists [-1]^k are lifts of the base's constants.  Operations evaluate an
expression in the presentation generators (a presentation sum_i [a_i] -
sum_j [b_j] is one) to a value, which is then multiplied by the lift of a
coefficient living over the base field.  Nothing is computed where K^MW
vanishes (degree >= 2 over F_q, >= 3 over F_q(t)): there, values are zero.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import (
    FieldMismatch,
    Inhomogeneous,
    NotAdmissible,
    TorsionViolation,
)
from .fields import FiniteField, RatFuncField
from .model import (
    MILNOR,
    MOD2,
    MW,
    WITT,
    MWElem,
    base_change,
    eval_model,
    minus_one_power,
    model_to_sym,
    theory_elements,
    theory_group_is_trivial,
    theory_torsion_test,
)
from .symbols import SymExpr, _unit_sort_key, embed_expr
from .valuation import is_zero as val_is_zero


def delta(n):
    """Parity flag: 1 for odd n, 0 for even n."""
    return n % 2


# ---------------------------------------------------------------------------
# evaluation oracles
# ---------------------------------------------------------------------------


class _Oracle:
    """An oracle is a lift, a bracket and a zero test: each subclass defines
    `from_base` (a model value over the base field, as a value of this
    oracle), `bracket` and `is_zero`.  The rest is derived here once:
    `equal`, and the constants `one`, `zero(degree)` and
    `minus_one_power(k)` = [-1]^k, which are lifts of the base's constants.

    The oracle also keeps the sigma-series cache, mapping (expr, n) to
    [lambda values, sigma values], a function of (expr, n) alone: both are
    computed once, up to `_top`, the last index whose group is nonzero.  A
    larger truncation L appends the oracle's zeros to both once, since every
    group above top is trivial.  A smaller truncation reads a slice, which
    is exact: a coefficient of a truncated series product depends only on
    lower indices.  Only a valid input is stored, so a miss runs
    lambda_series with all its checks.  The cache lives as long as the
    oracle, which is one per suite run.
    """

    def __init__(self, field, base):
        self.field = field
        self.base = base
        self._series = {}

    def one(self):
        return self.from_base(MWElem.one(self.base))

    def zero(self, degree):
        return self.from_base(MWElem.zero(self.base, degree))

    def minus_one_power(self, k):
        return self.from_base(minus_one_power(self.base, k))

    def equal(self, a, b, theory, degree):
        return self.is_zero(a.sub(b), theory, degree)

    def _series_entry(self, x, n, L):
        entry = self._series.get((x, n))
        if entry is None:
            top = _top(self.field, n)
            lam = tuple(lambda_series(x, n, top, self).values())
            sig = tuple(sigma_operator_values(lam, n, top, self).values())
            entry = self._series[x, n] = [lam, sig]
        if len(entry[0]) <= L:
            zeros = tuple(self.zero(l * n) for l in range(len(entry[0]), L + 1))
            entry[0] += zeros
            entry[1] += zeros
        return entry

    def lambda_values(self, x, n, L):
        """(lambda_0(x), ..., lambda_L(x)), before the coefficient action."""
        return self._series_entry(x, n, L)[0][: L + 1]

    def sigma_series(self, x, n, L):
        """(sigma_0(x), ..., sigma_L(x)), before the coefficient action."""
        return self._series_entry(x, n, L)[1][: L + 1]


class ModelOracle(_Oracle):
    """Values are closed-form model elements over a finite field."""

    def __init__(self, field):
        super().__init__(field, field)

    def from_base(self, elem):
        return base_change(elem, self.field)

    def bracket(self, units):
        out = MWElem.one(self.field)
        for u in units:
            out = out.mul(MWElem.from_unit(u))
        return out

    def is_zero(self, value, theory, degree):
        if isinstance(value, SymExpr):
            if value.is_structurally_zero():
                return True
            value = eval_model(value, degree)
        return value.is_zero_in(theory)


class ValuationOracle(_Oracle):
    """Values are symbolic expressions over F_q(t); equality goes through
    the canonical form of the split exact sequence.  Each base value is
    lifted once per oracle (`_lifts`, keyed by the interned model value),
    so a suite run builds each lift once."""

    def __init__(self, rf):
        super().__init__(rf, rf.base)
        self._lifts = {}

    def from_base(self, elem):
        lift = self._lifts.get(elem)
        if lift is None:
            lift = self._lifts[elem] = embed_expr(model_to_sym(elem), self.field)
        return lift

    def bracket(self, units):
        return SymExpr.bracket(*units)

    def is_zero(self, value, theory, degree):
        return val_is_zero(value, degree, theory)


def oracle_for(field):
    if isinstance(field, RatFuncField):
        return ValuationOracle(field)
    if isinstance(field, FiniteField):
        return ModelOracle(field)
    raise FieldMismatch(f"no oracle for {field!r}")


# ---------------------------------------------------------------------------
# truncated series (index -> value)
# ---------------------------------------------------------------------------


def _series_mul(a, b, trunc):
    # sparse: indices of structurally zero values are left out
    out = {}
    for i, va in a.items():
        for j, vb in b.items():
            k = i + j
            if k > trunc:
                continue
            prod = va.mul(vb)
            out[k] = out[k].add(prod) if k in out else prod
    return {k: v for k, v in out.items() if not v.is_structurally_zero()}


def _series_pow(s, k, trunc):
    out = dict(s)
    for _ in range(k - 1):
        out = _series_mul(out, s, trunc)
    return out


def _factor_series(oracle, symbol_value, n, exponent, trunc):
    """(1 + [symbol] t)^exponent, truncated (exponent != 0)."""
    if exponent > 0:
        base = {0: oracle.one(), 1: symbol_value}
        return _series_pow(base, exponent, trunc)
    # the twisted inverse: coefficients (-1)^j [-1]^{n(j-1)} [symbol]
    inv = {0: oracle.one()}
    for j in range(1, trunc + 1):
        coeff = oracle.minus_one_power(n * (j - 1)).mul(symbol_value)
        inv[j] = coeff if j % 2 == 0 else coeff.neg()
    return _series_pow(inv, -exponent, trunc)


def _check_input(x, n, oracle):
    """x over the oracle's field, and every term of x of degree n."""
    if x.field is not oracle.field:
        raise FieldMismatch("expression over the wrong field")
    for d, units in x.terms:
        if len(units) - d != n:
            raise Inhomogeneous(f"term eta^{d} of length {len(units)} is not of degree {n}")


def _top(field, n):
    """The last index l with K^MW_{l*n} of the field nonzero; every group
    above it is zero.  Below n = 1 no such index exists."""
    if n < 1:
        raise NotAdmissible("source degree must be >= 1")
    top = 0
    while not theory_group_is_trivial(field, MW, (top + 1) * n):
        top += 1
    return top


def lambda_series(x, n, trunc, oracle):
    """Coefficients of the divided-power generating series of x (before the
    action on a coefficient), as {l: value} for every l = 0..trunc; a
    vanishing coefficient is the oracle's zero of degree l*n.

    x is an expression in the presentation generators: every term is
    eta^d [a_1, ..., a_{d+n}] with d >= 0.  Each term of multiplicity m
    contributes, per subset J of its first d+1 entries, a factor
    (1 + [prod_J, tail] t)^((-1)^(d+1-|J|) m).  Only indices up to the last
    one, top, with K^MW_{top*n} nonzero over the oracle's field are computed.
    """
    top = min(trunc, _top(oracle.field, n))
    _check_input(x, n, oracle)
    series = {0: oracle.one()}
    term_order = lambda kv: (kv[0][0], tuple(_unit_sort_key(u) for u in kv[0][1]))
    for (d, units), mult in sorted(x.terms.items(), key=term_order):
        head, tail = units[: d + 1], units[d + 1 :]
        if any(u.is_one() for u in tail):
            continue  # every factor contains a [1] entry and collapses to 1
        for size in range(1, d + 2):
            for J in combinations(range(d + 1), size):
                prod = head[J[0]]
                for idx in J[1:]:
                    prod = prod.mul(head[idx])
                if prod.is_one():
                    continue
                exponent = mult if (d + 1 - size) % 2 == 0 else -mult
                value = oracle.bracket((prod,) + tail)
                factor = _factor_series(oracle, value, n, exponent, top)
                series = _series_mul(series, factor, top)
    return {
        l: series[l] if l in series else oracle.zero(l * n) for l in range(trunc + 1)
    }


def divided_power_series(n, x, y, trunc, oracle):
    """The truncated generating-series coefficients acting on y: the list
    [lambda_0(x).y, lambda_1(x).y, ..., lambda_trunc(x).y]."""
    require_torsion(n, y)
    y_val = oracle.from_base(y)
    return [v.mul(y_val) for v in oracle.lambda_values(x, n, trunc)]


# ---------------------------------------------------------------------------
# the operations lambda, sigma and f
# ---------------------------------------------------------------------------


def require_torsion(n, y):
    """Odd source degree needs an h-torsion coefficient."""
    if not theory_torsion_test(y, "delta_h", MW, n):
        raise TorsionViolation(
            f"degree-{n} divided powers need an h-torsion coefficient"
        )


def _act(value, y, oracle):
    """Right action of a value on a base-field coefficient."""
    return value.mul(oracle.from_base(y))


def twisted_sum(terms, n, minus_one_power):
    """sum_i c_i [-1]^{ni} v_i over an iterable of (i, c_i, v_i) that starts
    at i = 0, with [-1]^k = minus_one_power(k).  A term whose twist is zero
    ([-1]^k = 0 for k >= 2) is left out.  Every conversion between the
    divided powers lambda, sigma and f is a sum of this shape."""
    acc = None
    for i, c, v in terms:
        if i:
            twist = minus_one_power(n * i)
            if twist.is_structurally_zero():
                continue
            term = twist.mul(v)
        else:
            term = v
        if c != 1:
            term = term.scale(c)
        acc = term if acc is None else acc.add(term)
    return acc


def lambda_eval(n, l, y, x, oracle):
    """The l-th divided power of x acting on y."""
    require_torsion(n, y)
    return _act(oracle.lambda_values(x, n, l)[l], y, oracle)


def sigma_operator_values(series, n, lmax, oracle):
    """Values sigma_l(x) for l = 0..lmax from a lambda series, before the
    coefficient action: sigma_l = sum_j C(floor((l-1)/2), j) [-1]^{nj} lambda_{l-j}."""
    out = {0: series[0]}
    for l in range(1, lmax + 1):
        m = (l - 1) // 2
        out[l] = twisted_sum(
            ((j, comb(m, j), series[l - j]) for j in range(m + 1)),
            n,
            oracle.minus_one_power,
        )
    return out


def sigma_eval(n, l, y, x, oracle):
    require_torsion(n, y)
    return _act(oracle.sigma_series(x, n, l)[l], y, oracle)


def f_eval(n, l, y, x, oracle, direct=False):
    """The inverse-series divided power: f_l = (-1)^l sum_i C(l-1,i) [-1]^{ni} lambda_{l-i}.

    With direct=True the value is computed from the inverted generating
    series (the l-th coefficient of the series of -x) instead.
    """
    require_torsion(n, y)
    if l == 0:
        return _act(oracle.one(), y, oracle)
    if direct:
        # independent oracle, kept on purpose: checks the twisted-sum formula
        return _act(oracle.lambda_values(x.neg(), n, l)[l], y, oracle)
    series = oracle.lambda_values(x, n, l)
    sign = -1 if l % 2 else 1
    value = twisted_sum(
        ((i, sign * comb(l - 1, i), series[l - i]) for i in range(l)),
        n,
        oracle.minus_one_power,
    )
    return _act(value, y, oracle)


def f_lambda_convert(coeffs, n, field):
    """Rewrite sum_l lambda_l . a_l as sum_m f_m . b_m (and conversely).

    The conversion b_m = sum_i (-1)^(m+i) C(m+i-1, i) [-1]^{ni} a_{m+i} is an
    involution on coefficient tuples; m = 0 passes through.
    """
    L = len(coeffs) - 1
    power = lambda k: minus_one_power(field, k)
    out = [coeffs[0]]
    for m in range(1, L + 1):
        terms = (
            (i, (-1) ** (m + i) * comb(m + i - 1, i), coeffs[m + i])
            for i in range(L - m + 1)
        )
        out.append(twisted_sum(terms, n, power))
    return out


# ---------------------------------------------------------------------------
# coefficient sequences and their shift calculus
# ---------------------------------------------------------------------------

# (first constrained index, torsion kinds) per (source, target) row
ADMISSIBILITY_RULES = {
    (MILNOR, MILNOR): (2, ("delta_two", "tau")),
    (MILNOR, WITT): (2, ("delta_two", "tau")),
    (MILNOR, MW): (2, ("delta_two", "tau")),
    (WITT, MILNOR): (1, ("two",)),
    (WITT, WITT): (None, ()),
    (WITT, MW): (1, ("h",)),
    (MW, MILNOR): (2, ("delta_two",)),
    (MW, WITT): (None, ()),
    (MW, MW): (2, ("delta_h",)),
    (MW, MOD2): (None, ()),
}


def admissibility_row(source, target):
    """The table's (start, kinds) for the row (source, target)."""
    try:
        return ADMISSIBILITY_RULES[(source, target)]
    except KeyError:
        raise NotAdmissible(f"no admissibility row for {source} -> {target}") from None


def coefficient_allowed(source, target, n, l, a):
    """Whether a may stand at index l of a source-degree-n sequence of the
    row (source, target): the one executable statement of the table.  A
    sequence is admissible exactly when every coefficient is allowed."""
    start, kinds = admissibility_row(source, target)
    # every projection to a companion theory is a ring map, so a coefficient
    # that is zero in the target passes every torsion kind
    if start is None or l < start or a.is_zero_in(target):
        return True
    return all(theory_torsion_test(a, kind, target, n) for kind in kinds)


@lru_cache(maxsize=None)
def allowed_coefficients(field, source, target, n, l, degree):
    """The theory_elements of the degree that coefficient_allowed admits at
    index l, in enumeration order: every candidate list of a slot is read
    from here, computed once per slot.  Never empty: zero is allowed."""
    return tuple(
        a
        for a in theory_elements(field, target, degree)
        if coefficient_allowed(source, target, n, l, a)
    )


@lru_cache(maxsize=None)
def _g_map_table(L, minus_first):
    """Row l: the pairs (k, c) with c shift paths from index k to position 0
    in g_map's entry l, walked back from 0: OpSequence.shift fills position j
    from j+1, and from j+2 (the twist) where j's parity matches the sign."""
    rows = []
    for l in range(L + 1):
        signs = [-1] * (l // 2) + [+1] * ((l + 1) // 2)  # as in OpSequence.shifted
        reach = Counter({0: 1})
        for sign in signs[::-1] if minus_first else signs:
            back = Counter()
            for j, c in reach.items():
                back[j + 1] += c
                if j % 2 == (sign == +1):
                    back[j + 2] += c
            reach = back
        rows.append(tuple(sorted((k, c) for k, c in reach.items() if k <= L)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _g_map_weights(field, n, L, minus_first):
    """Row l: the pairs (k, c tau^(k-l)) for the pairs (k, c) of
    _g_map_table's row l, tau = [-1]^n, so tau^(k-l) = [-1]^(n(k-l)); each
    weight is computed once.  A weight the model computes as zero is left
    out."""
    rows = []
    for l, row in enumerate(_g_map_table(L, minus_first)):
        weights = []
        for k, c in row:
            w = minus_one_power(field, n * (k - l)).scale(c)
            if not w.is_zero():
                weights.append((k, w))
        rows.append(tuple(weights))
    return tuple(rows)


class OpSequence:
    """The coefficient sequence (a_l) of an operation sum_l sigma_l . a_l.

    Coefficients are model elements over the base field; a_l sits in target
    degree m - n*l.
    """

    __slots__ = ("source", "target", "n", "m", "field", "coeffs", "_admissible")

    def __init__(self, source, target, n, m, field, coeffs):
        if n < 1:
            raise NotAdmissible("source degree must be >= 1")
        admissibility_row(source, target)
        self.source = source
        self.target = target
        self.n = n
        self.m = m
        self.field = field
        coeffs = tuple(coeffs)
        for l, a in enumerate(coeffs):
            if a.field is not field:
                raise FieldMismatch("coefficient over the wrong base field")
            if a.degree != m - n * l:
                raise Inhomogeneous(
                    f"coefficient {l} has degree {a.degree}, expected {m - n * l}"
                )
        self.coeffs = coeffs
        self._admissible = None  # decided on first use

    @classmethod
    def _admitted(cls, source, target, n, m, field, coeffs):
        """The sequence, marked admissible: the caller passes coefficients
        that each pass coefficient_allowed (drawn from allowed_coefficients,
        zero, or a shift of an admissible sequence), so the verdict is known
        without deciding it (pinned by
        test_built_sequences_are_admissible_when_decided_afresh and
        test_shift_preserves_admissibility).  The constructor's own checks
        still run."""
        seq = cls(source, target, n, m, field, coeffs)
        seq._admissible = True
        return seq

    @property
    def trunc(self):
        return len(self.coeffs) - 1

    def coeff(self, l):
        if 0 <= l < len(self.coeffs):
            return self.coeffs[l]
        return MWElem.zero(self.field, self.m - self.n * l)

    def admissible(self):
        if self._admissible is None:
            self._admissible = all(
                coefficient_allowed(self.source, self.target, self.n, l, a)
                for l, a in enumerate(self.coeffs)
            )
        return self._admissible

    def require_admissible(self):
        if not self.admissible():
            raise NotAdmissible("sequence violates the admissibility table")

    # -- evaluation -----------------------------------------------------------

    def apply(self, x, oracle):
        """Evaluate sum_l sigma_l(x) . a_l through the oracle of x's field."""
        self.require_admissible()
        return self.evaluate(x, oracle)

    def evaluate(self, x, oracle):
        """apply() without the admissibility check, to show inadmissible sequences
        fail; where K^MW_m vanishes, the oracle's zero after the input checks."""
        if theory_group_is_trivial(oracle.field, MW, self.m):
            _check_input(x, self.n, oracle)
            return oracle.zero(self.m)
        sig = oracle.sigma_series(x, self.n, self.trunc)
        acc = oracle.zero(self.m)
        for l, a in enumerate(self.coeffs):
            if not a.is_zero_in(self.target):
                acc = acc.add(sig[l].mul(oracle.from_base(a)))
        return acc

    # -- the shift transform ----------------------------------------------------

    def shift(self, sign):
        """The coefficient transform of the positive or negative shift.

        plus:  b_l = a_{l+1} + [l odd]  tau a_{l+2}
        minus: b_l = a_{l+1} + [l even] tau a_{l+2}

        A shift of an admissible sequence is admissible again, so the
        result is built by _admitted instead of deciding it afresh.
        """
        self.require_admissible()
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        parity = 1 if sign == +1 else 0
        twist = minus_one_power(self.field, self.n)
        out = []
        for l in range(max(self.trunc, 1)):
            b = self.coeff(l + 1)
            if l % 2 == parity:
                b = b.add(twist.mul(self.coeff(l + 2)))
            out.append(b)
        return OpSequence._admitted(
            self.source, self.target, self.n, self.m - self.n, self.field, out
        )

    def shifted(self, plus, minus):
        """Shifted `minus` times negatively, then `plus` times positively."""
        self.require_admissible()
        seq = self
        for sign in [-1] * minus + [+1] * plus:
            seq = seq.shift(sign)
        return seq

    def g_map(self, minus_first=True):
        """Recover the coefficients: the l-th entry is the value at 0 of the
        operation shifted floor((l+1)/2) times positively and floor(l/2)
        times negatively (evaluation at 0 reads off the 0-th coefficient).

        A shift is linear: position j takes j+1, plus tau = [-1]^n times j+2
        where the sign's parity admits it.  So entry l is the sum of
        c_lk tau^(k-l) a_k over k = l..min(2l, L): c_lk counts the l-step paths
        from index k to 0 (_g_map_table), each two-index step taking one tau.
        The weights c_lk tau^(k-l) are computed once (_g_map_weights).
        """
        self.require_admissible()
        out = []
        for l, row in enumerate(_g_map_weights(self.field, self.n, self.trunc, minus_first)):
            acc = None  # every row holds (l, 1)
            for k, w in row:
                term = w.mul(self.coeffs[k])
                acc = term if acc is None else acc.add(term)
            out.append(acc)
        return out

    def roundtrip_ok(self):
        """Whether g_map in both orders gives back every coefficient."""
        return all(
            g.sub(a).is_zero_in(self.target)
            for minus_first in (True, False)
            for g, a in zip(self.g_map(minus_first), self.coeffs)
        )

    # -- the filtration ----------------------------------------------------------

    def filtration_degree(self):
        """Largest d with a_l in filtration level max(d - n*l, 0) for all l;
        None (infinity) for the zero sequence."""
        self.require_admissible()
        levels = []
        for l, a in enumerate(self.coeffs):
            if a.is_zero_in(self.target):
                continue
            levels.append(self.n * l + max(self.m - self.n * l, 0))
        return min(levels) if levels else None

    def __eq__(self, other):
        return (
            isinstance(other, OpSequence)
            and (other.source, other.target, other.n, other.m) == (self.source, self.target, self.n, self.m)
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        return (
            f"OpSequence({self.source}->{self.target}, n={self.n}, m={self.m}, "
            f"coeffs={list(self.coeffs)!r})"
        )


def admissible(source, target, n, m, field, coeffs):
    """The executable admissibility predicate of the classification table."""
    try:
        seq = OpSequence(source, target, n, m, field, coeffs)
    except (NotAdmissible, Inhomogeneous):
        return False
    return seq.admissible()
