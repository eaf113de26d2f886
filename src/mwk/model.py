"""Closed-form model of Milnor-Witt K-theory of a finite field.

An element of degree n is a compatible pair (Milnor part, Witt part):

* the Milnor part lives in Z (n = 0), in the unit group F_q^* (n = 1), held
  as the unit's encoding, and in the zero group otherwise;
* the Witt part is a class in the Witt ring W(F_q), encoded as a canonical
  pair (rank mod 2, discriminant) and constrained to I^max(n,0); over a
  finite field I^2 = 0, so only degrees <= 1 carry Witt information.

Compatibility says the Milnor part's image in K^M_n/2 = I^n/I^{n+1} is the
class of the Witt part: the rank's parity in degree 0, and in degree 1 the
square class chi(u) of the unit (`FFUnit.is_square`), since K^MW_1 is the
fibre product of F_q^* and I over F_q^*/F_q^*2.  Negative degrees are pure
Witt classes.  Every value is held in the normal form of its degree:

* n >= 2: milnor 0, witt (0, 0);
* n == 1: milnor the unit u, witt (0, chi(u)); degree-1 addition multiplies
  units, and the zero is the unit 1;
* n == 0: milnor the rank m in Z, witt the canonical pair (m mod 2, disc);
* n < 0:  milnor 0, witt the canonical pair.

Values are hash-consed: `_build` returns the one shared instance of a
normal form from an intern table on its field, and arithmetic reaches it
unchecked; only the public constructors `MWElem(...)` and `witt_class`
check their input.  `add`, `mul` and `neg` remember their results on the
interned operand (see `MWElem`).  The module also provides the independent
presentation oracle: the standard generators and relations truncated at a
maximal eta power, resolved by integer Smith normal form, for
cross-checking the closed-form groups.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    Inhomogeneous,
    SizeBound,
)
from .fields import FFUnit, FiniteField, RatFuncField, size_bound
from .symbols import SymExpr, embed_expr

MW = "MW"
MILNOR = "Milnor"
WITT = "Witt"
MOD2 = "Mod2Milnor"

THEORIES = (MW, MILNOR, WITT, MOD2)


def _disc_minus_one(field):
    # discriminant of -1: nontrivial exactly when q = 3 mod 4
    return 1 if field.q % 4 == 3 else 0


def _w_canonical(field, rank, disc):
    """Canonical representative (rank in {0,1}, disc) of a Witt class."""
    r = rank % 2
    return (r, (disc + (rank - r) // 2 * _disc_minus_one(field)) % 2)


W_ZERO = (0, 0)

# Caps of the hash-consing tables: distinct values interned per field, and
# partners remembered per value and operation.  Degree-0 ranks are unbounded,
# so past a cap a value or result is built and returned without being stored.
INTERN_CAP = 1024
MEMO_CAP = 128

_new = object.__new__


def _zero_milnor(degree):
    """The Milnor part of zero: the unit 1 in degree 1, else 0."""
    return 1 if degree == 1 else 0


def _chi(u):
    """The square class of a unit: 0 for a square, 1 otherwise."""
    return 0 if u.is_square() else 1


def _build(field, degree, milnor, rank, disc):
    """The element of the given degree with Milnor part `milnor` and Witt
    class (rank, disc), in normal form and unchecked: the caller must pass a
    compatible pair (every arithmetic result is one), in degree 1 a unit
    encoding with disc its square class mod 2.

    Returns the one interned instance of that value over `field`, from the
    field's intern table; once the table holds INTERN_CAP values, a value not
    in it comes back as a fresh object without `add`/`mul` memos.  Either way
    the value carries its zero test as the flag `_is_zero`."""
    if degree >= 2:
        milnor, witt = 0, W_ZERO
    elif degree == 1:
        witt = (0, disc % 2)
    else:
        if degree:
            milnor = 0
        witt = _w_canonical(field, rank, disc)
    key = (degree, milnor, witt)
    try:
        values = field._model_values
    except AttributeError:
        values = field._model_values = {}
        field._model_constants, field._unit_values = {}, {}
    x = values.get(key)
    if x is None:
        x = _new(MWElem)
        x.field, x.degree, x.milnor, x.witt = field, degree, milnor, witt
        x._hash = hash((id(field),) + key)
        x._neg = None
        x._is_zero = milnor == _zero_milnor(degree) and witt == W_ZERO
        if len(values) < INTERN_CAP:
            x._sums, x._prods = {}, {}
            values[key] = x
        else:
            x._sums = x._prods = None
    return x


def _remember(memo, other, result):
    """Store `result` in an interned value's memo under `other`, when `other`
    is interned too and the memo is under MEMO_CAP.  Keys are ids: a stored
    partner is held by its field's intern table, and the memo's owner holds
    that field, so no live object can share a stored partner's id."""
    if memo is not None and other._sums is not None and len(memo) < MEMO_CAP:
        memo[id(other)] = result
    return result


def _constant(field, key):
    """Build and keep a constant of the field's table `_model_constants`
    (made beside its intern table): the zero of degree `key` for an int key,
    and one and [-1] under the keys "one" and "[-1]"."""
    if key == "one":
        x = _build(field, 0, 1, 1, 0)
    elif key == "[-1]":  # with the square class of -1
        x = _build(field, 1, field.neg(1), 0, _disc_minus_one(field))
    else:
        x = _build(field, key, _zero_milnor(key), 0, 0)
    field._model_constants[key] = x
    return x


def _unit_value(field, value):
    """Build [u] in degree 1 for the unit encoding `value` and keep it in the
    field's table `_unit_values` (made beside its intern table) while that
    table holds under INTERN_CAP units."""
    x = _build(field, 1, value, 0, 0 if field.is_square(value) else 1)
    units = field._unit_values
    if len(units) < INTERN_CAP:
        units[value] = x
    return x


class MWElem:
    """An element of degree-n Milnor-Witt K-theory of F_q in pair form.

    Values are held in the normal form of their degree (see the module
    docstring) and hash-consed: every constructor, checked or not, returns
    the one shared instance per (field, degree, milnor, witt) from the
    field's intern table, so values must never be changed in place.  Each
    interned value keeps a memo per operation (`add`, `mul`, `neg`) from the
    other operand to the result; a hit is one dict lookup.  The checks
    (`FieldMismatch`, `DegreeMismatch`) run on every miss, and a raising call
    stores nothing, so a hit stands for a pair that passed them.  The tables
    are capped (INTERN_CAP, MEMO_CAP); past a cap, results are computed and
    not stored, and equality stays equality of values.

    `MWElem(field, degree, milnor, witt)` is the checked entry for outside
    input: it canonicalises the Witt pair, raises `DegreeMismatch` for an
    incompatible pair in degrees 0 and 1 and for data the degree cannot hold
    (a nonzero Milnor part outside degrees 0 and 1, a degree-1 Milnor part
    that is no unit encoding, a nonzero Witt class in degree >= 2, where
    I^2 = 0), and returns the interned normal form.
    """

    __slots__ = ("field", "degree", "milnor", "witt", "_hash", "_sums", "_prods", "_neg", "_is_zero")

    def __new__(cls, field, degree, milnor, witt):
        rank, disc = _w_canonical(field, *witt)
        if milnor and not 0 <= degree <= 1:
            raise DegreeMismatch(f"Milnor part must be 0 in degree {degree}")
        if degree >= 2 and (rank, disc) != W_ZERO:
            raise DegreeMismatch(f"Witt part must be 0 in degree {degree} (I^2 = 0)")
        if degree == 1:
            if rank != 0:
                raise DegreeMismatch("degree-1 Witt part must lie in I")
            try:
                unit = field.unit(milnor)
            except ZeroDivisionError:
                raise DegreeMismatch(f"degree-1 Milnor part {milnor} is no unit") from None
            milnor, parity = unit.value, _chi(unit)
        else:
            parity = milnor % 2
        if (degree == 0 and parity != rank) or (degree == 1 and parity != disc):
            raise DegreeMismatch(
                f"incompatible pair (degree {degree}, milnor {milnor}, witt {witt})"
            )
        return _build(field, degree, milnor, rank, disc)

    def __init__(self, field, degree, milnor, witt):
        """Nothing left to do: `__new__` checked and returned the interned value."""

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field, degree):
        try:
            return field._model_constants[degree]
        except (AttributeError, KeyError):
            return _constant(field, degree)

    @staticmethod
    def one(field):
        try:
            return field._model_constants["one"]
        except (AttributeError, KeyError):
            return _constant(field, "one")

    @staticmethod
    def from_unit(u):
        """[a]: Milnor symbol {a} paired with the Pfister-type class <a> - <1>."""
        return MWElem.from_encoding(u.field, u.value)

    @staticmethod
    def from_encoding(field, value):
        """[a] for the unit encoding a, with no unit built: one lookup on a hit."""
        try:
            return field._unit_values[value]
        except (AttributeError, KeyError):
            return _unit_value(field, value)

    @staticmethod
    def angle(u):
        """<a> = 1 + eta [a] in degree 0."""
        return _build(u.field, 0, 1, 1, _chi(u))

    @staticmethod
    def h(field):
        return _build(field, 0, 2, 0, 0)

    @staticmethod
    def eps(field):
        return _build(field, 0, -1, 1, 0)

    @staticmethod
    def witt_class(field, degree, w):
        """The pure Witt element of negative degree."""
        if degree >= 0:
            raise DegreeMismatch("pure Witt classes live in negative degrees")
        return MWElem(field, degree, 0, w)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if other.field is not self.field:
            raise FieldMismatch("elements over different fields")

    def add(self, other):
        try:
            return self._sums[id(other)]
        except (KeyError, TypeError):  # a miss, or self is not interned
            return _remember(self._sums, other, self._add(other))

    def _add(self, other):
        self._check(other)
        if other.degree != self.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree}")
        (r1, d1), (r2, d2) = self.witt, other.witt
        if self.degree == 1:  # units: a sum is a product
            milnor = self.field.mul(self.milnor, other.milnor)
        else:
            milnor = self.milnor + other.milnor
        return _build(self.field, self.degree, milnor, r1 + r2, d1 + d2)

    def neg(self):
        x = self._neg
        if x is None:
            r, d = self.witt
            milnor = self.field.inv(self.milnor) if self.degree == 1 else -self.milnor
            x = self._neg = _build(self.field, self.degree, milnor, -r, d)
        return x

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        r, d = self.witt
        milnor = self.field.pow(self.milnor, c) if self.degree == 1 else c * self.milnor
        return _build(self.field, self.degree, milnor, c * r, c * d)

    def mul(self, other):
        try:
            return self._prods[id(other)]
        except (KeyError, TypeError):  # a miss, or self is not interned
            return _remember(self._prods, other, self._mul(other))

    def _mul(self, other):
        self._check(other)
        n, m = self.degree, other.degree
        if n == 0 or m == 0:
            if n + m == 1:  # the degree-1 unit to the power of the other's rank
                unit, rank = (self.milnor, other.milnor) if n else (other.milnor, self.milnor)
                milnor = self.field.pow(unit, rank)
            else:
                milnor = self.milnor * other.milnor
        else:
            # positive-degree Milnor products die in K^M_{>=2} = 0
            milnor = _zero_milnor(n + m)
        (r1, d1), (r2, d2) = self.witt, other.witt
        return _build(self.field, n + m, milnor, r1 * r2, r2 * d1 + r1 * d2)

    def eta_mul(self, power=1):
        """Multiply by eta^power (power >= 0): kill the Milnor part, keep the
        Witt class."""
        if power < 0:
            raise ValueError("eta is no unit: negative eta powers are not defined")
        if power == 0:
            return self
        degree = self.degree - power
        return _build(self.field, degree, _zero_milnor(degree), *self.witt)

    def h_mul(self):
        return MWElem.h(self.field).mul(self)

    def is_zero(self):
        return self._is_zero

    # the normal form leaves the zero value as the only zero, so the test a
    # symbolic expression makes on its terms is the zero test here
    is_structurally_zero = is_zero

    # -- projections to the companion theories --------------------------------

    def project(self, theory):
        """The invariant of this element's image in the given theory."""
        if theory == MW:
            return (self.milnor, self.witt)
        if theory == MILNOR:
            return self.milnor
        if theory == WITT:
            return self.witt
        if theory == MOD2:
            # the class in I^n/I^(n+1): the rank's parity, the square class
            return self.witt[self.degree] if 0 <= self.degree <= 1 else 0
        raise ValueError(f"unknown theory {theory}")

    def is_zero_in(self, theory):
        if theory == MW:
            return self._is_zero
        if theory == WITT:
            return self.witt == W_ZERO
        zero = _zero_milnor(self.degree) if theory == MILNOR else 0
        return self.project(theory) == zero

    def __eq__(self, other):
        return self is other or (
            isinstance(other, MWElem)
            and other.field is self.field
            and other.degree == self.degree
            and other.milnor == self.milnor
            and other.witt == self.witt
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MW(deg={self.degree}, milnor={self.milnor}, witt={self.witt})"

    def to_json(self):
        return {
            "degree": self.degree,
            "milnor": self.milnor,
            "witt": list(self.witt),
        }


def eval_model(expr, degree):
    """Ring-homomorphic evaluation of a symbolic expression of the given
    degree over F_q."""
    field = expr.field
    if not isinstance(field, FiniteField):
        raise FieldMismatch("eval_model needs an expression over a finite field")
    acc = MWElem.zero(field, degree)
    for (d, units), coeff in expr.terms.items():
        if len(units) - d != degree:
            raise Inhomogeneous(f"a term of degree {len(units) - d} != the stated degree {degree}")
        term = MWElem.one(field)
        for u in units:
            term = term.mul(MWElem.from_unit(u))
        term = term.eta_mul(d).scale(coeff)
        acc = acc.add(term)
    return acc


def theory_torsion_test(y, kind, theory, n=None):
    """Whether a model element passes a torsion kind of the admissibility
    table, taken inside a companion theory (on projections); theory MW tests
    the element itself.  The kinds are h-torsion "h", 2-torsion "two" and
    tau_n-torsion "tau"; "delta_h" and "delta_two" ask for h- and 2-torsion
    at odd source degree n and hold at even n."""
    if kind in ("delta_h", "delta_two"):
        if n is None:
            raise ValueError(f"{kind}-torsion needs the source degree n")
        if n % 2 == 0:
            return True
        kind = kind[len("delta_") :]
    if kind == "h":
        return y.h_mul().is_zero_in(theory)
    if kind == "two":
        return y.add(y).is_zero_in(theory)
    if kind == "tau":
        if n is None:
            raise ValueError("tau-torsion needs the source degree n")
        t = minus_one_power(y.field, n - 1)
        return t.mul(y).is_zero_in(theory)
    raise ValueError(f"unknown torsion kind {kind}")


def minus_one_power(field, k):
    """The model element [-1]^k (k >= 0), in closed form: 1, [-1], and then
    zero, since the model's groups of degree >= 2 are trivial."""
    if k >= 2:
        return MWElem.zero(field, k)
    if k == 1:
        try:
            return field._model_constants["[-1]"]
        except (AttributeError, KeyError):
            return _constant(field, "[-1]")
    return MWElem.one(field)


def base_change(elem, target):
    """Extension of scalars along F_q -> F_{q^k}: the Milnor part follows the
    unit embedding, the Witt part extends the form."""
    if target is elem.field:
        return elem
    return eval_model(embed_expr(model_to_sym(elem), target), elem.degree)


def model_to_sym(elem):
    """A symbolic representative over F_q evaluating to the given element:
    [u] in degree 1, otherwise c + eta [g^j] (times eta^-n below degree 0)
    with c the rank and j fixed by the discriminant, for g the generator;
    for j = 0 the term eta [1] = 0 is left out."""
    field = elem.field
    n = elem.degree
    if elem.is_zero():
        return SymExpr.zero(field)
    if n == 1:
        return SymExpr.bracket(FFUnit(field, elem.milnor))
    c = elem.milnor if n == 0 else elem.witt[0]
    # const(c) carries the discriminant (c // 2) disc(-1); eta [g^j] adds j
    j = (elem.witt[1] - (c // 2) * _disc_minus_one(field)) % 2
    rep = SymExpr.const(field, c)
    if j:
        rep = rep.add(SymExpr.bracket(field.gen_unit()).eta_mul())
    return rep.eta_mul(-n) if n < 0 else rep


# ---------------------------------------------------------------------------
# enumeration of the model groups
# ---------------------------------------------------------------------------


def model_elements(field, degree, rank_window=2):
    """All elements of the degree-n model group (rank restricted to a window
    of size rank_window around 0 when the group is infinite)."""
    if degree >= 2:
        return [MWElem.zero(field, degree)]
    if degree == 1:
        return [MWElem.from_unit(u) for u in field.units()]
    if degree == 0:
        return [
            _build(field, 0, r, r % 2, delta)
            for r in range(-rank_window, rank_window + 1)
            for delta in (0, 1)
        ]
    return [_build(field, degree, 0, r, delta) for r in (0, 1) for delta in (0, 1)]


def theory_elements(field, theory, degree):
    """One model representative per element of the theory's degree-n group
    (ranks -2..2 in degree 0)."""
    seen = {}
    for elem in model_elements(field, degree):
        key = elem.project(theory)
        if key not in seen:
            seen[key] = elem
    return list(seen.values())


def theory_group_is_trivial(field, theory, degree):
    """Whether the theory's degree-n group over F_q or F_q(t) is zero.  Over
    F_q all four vanish from n = 2 on (I^2 = 0, K^M_2 = 0); over F_q(t) the
    split exact sequence adds the degree-(n-1) groups of the residue fields,
    so from n = 3 on.  Milnor and mod-2 K-theory also vanish for n < 0."""
    if theory in (MILNOR, MOD2) and degree < 0:
        return True
    return degree >= (3 if isinstance(field, RatFuncField) else 2)


# ---------------------------------------------------------------------------
# abstract structure of a finite abelian group given by elements and addition
# ---------------------------------------------------------------------------


def _order_of(x, add, zero):
    n, acc = 1, x
    while acc != zero:
        acc = add(acc, x)
        n += 1
    return n


def finite_abelian_invariants(elements, add, neg, zero):
    """Invariant factors d_1 | d_2 | ... of a finite abelian group.

    Splits off a maximal-order cyclic subgroup and recurses on the quotient,
    representing quotient elements as frozensets of coset members.
    """
    elements = list(elements)
    if len(elements) <= 1:
        return []
    best = max(elements, key=lambda x: _order_of(x, add, zero))
    e = _order_of(best, add, zero)
    cyclic = []
    acc = zero
    for _ in range(e):
        cyclic.append(acc)
        acc = add(acc, best)
    cyc_set = set(cyclic)
    cosets = {}
    for x in elements:
        coset = frozenset(add(x, c) for c in cyc_set)
        cosets[coset] = x
    rep_of = {}
    for coset in cosets:
        for member in coset:
            rep_of[member] = coset

    def q_add(a, b):
        return rep_of[add(cosets[a], cosets[b])]

    def q_neg(a):
        return rep_of[neg(cosets[a])]

    q_zero = rep_of[zero]
    sub = finite_abelian_invariants(list(cosets), q_add, q_neg, q_zero)
    return sub + [e]


def group_structure_model(field, n):
    """Invariant factors of the degree-n group, derived by enumeration.

    Finite factors come first in divisibility order; a trailing 0 denotes a
    free Z summand (only in degree 0, where the rank splits off).
    """
    if field.q > size_bound():
        raise SizeBound(f"q = {field.q} exceeds the enumeration bound")
    if n == 0:
        # the rank splits off a free summand; the complement is the finite
        # torsion subgroup {pairs of rank 0}, enumerated exhaustively
        one = MWElem.one(field)
        elems = model_elements(field, 0, rank_window=4)
        torsion = [e for e in elems if e.milnor == 0]
        for e in elems:
            t = e.sub(one.scale(e.milnor))
            if t not in torsion:
                raise SizeBound("rank splitting failed")  # pragma: no cover
        facs = finite_abelian_invariants(
            torsion, lambda a, b: a.add(b), lambda a: a.neg(), MWElem.zero(field, 0)
        )
        return [f for f in facs if f != 1] + [0]
    elems = model_elements(field, n)
    facs = finite_abelian_invariants(
        elems, lambda a, b: a.add(b), lambda a: a.neg(), MWElem.zero(field, n)
    )
    return [f for f in facs if f != 1]


# ---------------------------------------------------------------------------
# Smith normal form and the presentation oracle
# ---------------------------------------------------------------------------


def smith_normal_form(rows, ncols=None):
    """Diagonal invariant factors d_1 | d_2 | ... of an integer matrix.

    Exact textbook algorithm: pick the smallest nonzero entry as pivot,
    reduce its row and column by floor division (remainders strictly shrink
    the pivot), then repair divisibility of the remaining block.  Returns
    min(nrows, ncols) entries in divisibility order, zeros last.
    """
    mat = [list(r) for r in rows]
    if ncols is None:
        ncols = max((len(r) for r in mat), default=0)
    for r in mat:
        r.extend([0] * (ncols - len(r)))
    nrows = len(mat)
    size = min(nrows, ncols)
    t = 0
    while t < size:
        best, pi, pj = None, None, None
        for i in range(t, nrows):
            row = mat[i]
            for j in range(t, ncols):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best, pi, pj = abs(v), i, j
        if best is None:
            break
        mat[t], mat[pi] = mat[pi], mat[t]
        if pj != t:
            for row in mat:
                row[t], row[pj] = row[pj], row[t]
        if mat[t][t] < 0:
            mat[t] = [-v for v in mat[t]]
        p = mat[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            v = mat[i][t]
            if v:
                q = v // p
                if q:
                    top = mat[t]
                    mat[i] = [x - q * y for x, y in zip(mat[i], top)]
                if mat[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, ncols):
            v = mat[t][j]
            if v:
                q = v // p
                if q:
                    for i in range(t, nrows):
                        mat[i][j] -= q * mat[i][t]
                if mat[t][j]:
                    dirty = True
        if dirty:
            continue
        clean = True
        for i in range(t + 1, nrows):
            if any(mat[i][j] % p for j in range(t + 1, ncols)):
                mat[t] = [x + y for x, y in zip(mat[t], mat[i])]
                clean = False
                break
        if clean:
            t += 1
    diag = [abs(mat[i][i]) for i in range(t)]
    diag.extend([0] * (size - len(diag)))
    return diag


def _insert_row(basis, row):
    """Insert an integer row into an echelon lattice basis (dict: lead -> row).

    Row operations only (subtraction and swap), so the Z-row-span is
    preserved; snf_oracle holds its relation lattice in one such basis.
    """
    while True:
        lead = None
        for j, v in enumerate(row):
            if v:
                lead = j
                break
        if lead is None:
            return
        held = basis.get(lead)
        if held is None:
            basis[lead] = row if row[lead] > 0 else [-v for v in row]
            return
        a, c = held[lead], row[lead]
        q = c // a
        if q:
            row = [x - q * y for x, y in zip(row, held)]
        if row[lead]:
            basis[lead] = row
            row = held


def _unpack(packed, width, m):
    """The m signed coefficients of a packed row (see _Presentation)."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    row = []
    for _ in range(m):
        c = ((packed + half) & mask) - half
        row.append(c)
        packed = (packed - c) >> width
    return tuple(row)


class _Presentation:
    """The standard presentation of degree-n Milnor-Witt K-theory, truncated
    at eta power d_max, with eta-positive generators eliminated along the
    twisted-tensor pivots.  Its relations come in levels: level d holds the
    relations the truncation at eta power d adds to the one at d - 1.

    A generator eta^d [a_1, ..., a_r] has r = n + d, so its unit tuple names
    it.  A row over the m residual generators is packed into one int:
    coefficient i sits in a signed field of `width` bits at offset width * i,
    so adding the ints adds the rows.  A rewrite at eta power d has L1 norm
    at most 3^d (each elimination is a sum of three rewrites at d - 1) and a
    relation row at most 2 * 3^d (at most four rewrites), so `width` bits
    hold every coefficient exactly and equal rows are equal ints.
    """

    def __init__(self, field, n, d_max):
        if n < 0:
            raise SizeBound("presentation oracle needs n >= 0")
        if d_max < 0:
            raise SizeBound("presentation oracle needs d_max >= 0")
        limit = size_bound()
        self.field = field
        self.n = n
        self.d_max = d_max
        for d in range(d_max + 1):
            if (field.q - 1) ** (n + d) > limit:
                raise SizeBound(
                    f"generator count (q-1)^{n + d} exceeds bound {limit}"
                )
        self.units = list(range(1, field.q))  # unit encodings
        self.width = (2 * 3**d_max).bit_length() + 1
        # residual generators: eta^0 tuples, plus eta^1 singletons when n = 0
        base = self._tuples(n)
        if n == 0 and d_max >= 1:
            base = base + self._tuples(1)
        self.m = len(base)
        self._vecs = {tup: 1 << (self.width * i) for i, tup in enumerate(base)}

    def _tuples(self, r):
        return list(product(self.units, repeat=r))

    def _vec(self, tup):
        """The packed rewrite of a generator into the residual generators:
        eta^d [b, b', ...] = eta^(d-1) ([bb', ...] - [b, ...] - [b', ...])."""
        v = self._vecs.get(tup)
        if v is None:
            vec, rest = self._vec, tup[2:]
            b, bp = tup[0], tup[1]
            v = vec((self.field.mul(b, bp),) + rest) - vec((b,) + rest) - vec((bp,) + rest)
            self._vecs[tup] = v
        return v

    def packed_rows(self, d):
        """The relations of level d as packed rows, zero rows and repeats
        included: the Steinberg relations at eta power d, the twisted-tensor
        relations at e = d - 1 except the pivots at position 0 (which define
        the elimination) and the zero rows at positions 1..e, and the Witt
        relations at e."""
        F, units, vec = self.field, self.units, self._vec
        # Steinberg relations: adjacent entries summing to 1
        r = self.n + d
        if r >= 2:
            for tup in self._tuples(r):
                if any(F.add(a, b) == 1 for a, b in zip(tup, tup[1:])):
                    yield vec(tup)
        e, r = d - 1, r - 1
        # Twisted tensor relations at positions i > e; those at 1 <= i <= e
        # rewrite to the zero row.  Proof: the rewrite of eta^e [a_0, .., a_e, s]
        # is V(a_0, .., a_e) = sum over nonempty S in {0..e} of
        # (-1)^(e+1-|S|) [prod_{j in S} a_j, s] (for n = 0 the window is
        # a_0..a_(e-1) and the terms are eta [prod]).  With c at a position i
        # inside the window, write V(c) = A(c) + N, A the terms with i in S.
        # The eta^(e+1) rewrite of the tuple with c split into b, b' has a
        # window one entry wider, and grouping its S by S meet {i, i+1} gives
        # A(bb') - A(b) - A(b') - N.  So the relation
        # V(bb') - V(b) - V(b') - (A(bb') - A(b) - A(b') - N) is N - N - N + N = 0.
        for i in range(e + 1, r if e >= 0 else 0):
            sufs = self._tuples(r - 1 - i)
            for pre in self._tuples(i):
                # the eta^e rewrites [pre, c, suf], looked up once per prefix
                low = {c: [vec(pre + (c,) + suf) for suf in sufs] for c in units}
                for b in units:
                    for bp in units:
                        a, x, y = low[F.mul(b, bp)], low[b], low[bp]
                        for j, suf in enumerate(sufs):
                            yield a[j] - x[j] - y[j] - vec(pre + (b, bp) + suf)
        # Witt relations: 2 eta^e [tuple] + eta^{e+1} [tuple with -1 inserted]
        if e >= 1:
            minus_one = F.neg(1)
            for tup in self._tuples(r):
                twice = 2 * vec(tup)
                for pos in range(r + 1):
                    yield twice + vec(tup[:pos] + (minus_one,) + tup[pos:])

    def relation_rows(self):
        """The distinct nonzero relation rows, level by level, as (level,
        row) with the row a tuple."""
        seen = {0}
        for d in range(self.d_max + 1):
            for packed in self.packed_rows(d):
                if packed not in seen:
                    seen.add(packed)
                    yield d, _unpack(packed, self.width, self.m)


def snf_oracle(field, n, d_max):
    """Presentation-based invariant factors with an empirical stabilization report.

    Returns {"factors": per-d list, "stabilized": bool, "final": last factors}.
    The rows of one presentation truncated at d_max go level by level into a
    single echelon basis (incremental Hermite reduction), and the factors of
    level d are read off the basis once every row of level <= d is in.  When
    the basis turns unimodular the relation lattice is all of Z^m, and more
    relations cannot change the quotient: generation stops, and that level and
    every later one report the zero group.
    """
    pres = _Presentation(field, n, d_max)
    m = pres.m
    basis = {}
    per_d = []

    def factors():
        # level 0 of degree 0 has the single generator 1; eta [a] enters at 1
        width = m if n or per_d else 1
        diag = smith_normal_form(list(basis.values()), width)
        free = width - sum(1 for d in diag if d != 0)
        return sorted(d for d in diag if d not in (0, 1)) + [0] * free

    for level, row in pres.relation_rows():
        while len(per_d) < level:
            per_d.append(factors())
        _insert_row(basis, row)
        if len(basis) == m and all(basis[j][j] == 1 for j in range(m)):
            per_d.extend([] for _ in range(len(per_d), d_max + 1))
            break
    while len(per_d) <= d_max:
        per_d.append(factors())
    stabilized = len(per_d) >= 2 and per_d[-1] == per_d[-2]
    return {"factors": per_d, "stabilized": stabilized, "final": per_d[-1]}

