"""Exact arithmetic for small finite fields F_{p^d} (p odd) and for the
multiplicative structure of the rational function field F_q(t).

Field elements are encoded as integers in [0, q): F_{p^d} and the residue
fields F_q[t]/(P) are both F_base[x]/(P), and the base-`base.q` digits of an
encoding are the coefficients (low to high) of the residue polynomial modulo
P.  A unit is its encoding.  Its square class is the parity of its discrete
logarithm in a field with tables, and in a residue field F_q[t]/(P) the
Jacobi symbol of F_q[t], decided by quadratic reciprocity; so no residue
field needs a discrete logarithm.  Polynomial arithmetic has one multiply
and one division loop, over F_p on plain integers reduced mod p and over
F_{p^d} with d > 1 on discrete logarithms with Zech addition; the multiply
mod m (`_mulmod`) and the whole square-and-multiply chain of a power mod m
(`_powmod`) run in that representation, converted once in and once out.
A Poly is a tuple and hashes in C.

Units of F_q(t) are kept in fully factored form: a constant of the base field
times a product of monic irreducible polynomials with integer exponents.
Unique factorization makes equality, valuations and residue-field reductions
exact and cheap.  Factoring is Cantor-Zassenhaus and irreducibility is
Rabin's test; the residue field at a place P of degree >= 2 is F_q[t]/(P)
(`QuotientField`), with no tables; its inverse is extended Euclid on
coefficient tuples, and its reductions (`reduce_local`) return encodings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple
from weakref import WeakValueDictionary

from .errors import (
    DegreeBound,
    EvenCharacteristic,
    FieldMismatch,
    NotPrime,
    NotRegularAtPlace,
    SizeBound,
    ZeroPolynomial,
)

DEFAULT_SIZE_BOUND = 10_000
DEFAULT_DEGREE_BOUND = 12
# Polynomials whose factored unit each function field remembers (from_poly).
FACTOR_MEMO_CAP = 4096


def size_bound():
    return int(os.environ.get("MWK_SIZE_BOUND", DEFAULT_SIZE_BOUND))


def factorint(n):
    """Prime factorization of a positive integer as {prime: multiplicity}, by
    trial division up to size_bound(): a cofactor without prime factors up
    to the bound is prime when it is below the bound's square, and raises
    SizeBound otherwise."""
    limit = size_bound()
    out = {}
    p = 2
    while p <= limit and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n >= limit * limit:
        raise SizeBound(f"a cofactor {n} >= {limit}^2 has no prime factors up to {limit}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FiniteField:
    """The field F_{p^d} with a deterministically chosen modulus and generator.

    For d > 1 it is the quotient F_p[x]/(modulus), on the same encoding and
    arithmetic as `QuotientField`, plus exp/log/Zech tables.  The modulus is
    the lexicographically smallest monic irreducible polynomial of degree d
    over F_p (coefficients compared low to high), and the generator is the
    smallest element (in integer encoding) of multiplicative order p^d - 1.
    F_p itself is F_p[x]/(x), its own base.  Instances are cached by (p, d)
    and compared by identity.
    """

    def __init__(self, p, d, modulus):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus  # coefficient tuple over F_p, low to high, monic
        self.base = self if d == 1 else ff_build(p, 1)
        self._unit_table = {}  # value -> FFUnit: at most q - 1 units, like the log tables
        self._irreducibles = {}  # degree -> list of monic irreducible Polys
        self._embeddings = {}  # id(bigger field) -> encoding map list
        self.generator = self._smallest_generator()
        self._build_tables()

    # -- F_base[x]/(modulus): encoding, multiply, power, generator ----------

    def _decode(self, x):
        """The coefficient tuple (over the base, low to high, trimmed) of an
        encoding: its digits in base `base.q`."""
        out = []
        while x:
            x, c = divmod(x, self.base.q)
            out.append(c)
        return tuple(out)

    def _encode(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * self.base.q + c
        return out

    def _mul(self, x, y):
        return _mulmod(self.base, x, y, self.modulus)

    def _pow(self, x, e):
        return _powmod(self.base, x, e, self.modulus)

    def _smallest_generator(self):
        """The smallest encoding of multiplicative order q - 1."""
        order = self.q - 1
        cofactors = [order // ell for ell in factorint(order)]
        if self.d == 1:
            p = self.p
            return next(a for a in range(2, p) if all(pow(a, c, p) != 1 for c in cofactors))
        # the constants have order dividing base.q - 1 < q - 1: start at x
        return next(
            a
            for a in range(self.base.q, self.q)
            if all(self._pow(self._decode(a), c) != (1,) for c in cofactors)
        )

    # -- element arithmetic -------------------------------------------------

    def add(self, a, b):
        if self.d == 1:
            return (a + b) % self.p
        # Zech logarithms: g^i + g^j = g^i (1 + g^(j-i)) = g^(i + Z(j-i))
        if not a:
            return b
        if not b:
            return a
        dlog = self._dlog
        i = dlog[a]
        z = self._zech[(dlog[b] - i) % self._order]
        return 0 if z is None else self._exp[(i + z) % self._order]

    def neg(self, a):
        if self.d == 1:
            return (-a) % self.p
        if not a:
            return 0
        return self._exp[(self._dlog[a] + self._order // 2) % self._order]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._dlog[a] + self._dlog[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[(-self._dlog[a]) % (self.q - 1)]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 ** negative")
            return 0 if e else 1
        return self._exp[(self._dlog[a] * e) % (self.q - 1)]

    def _build_tables(self):
        order = self._order = self.q - 1
        gen = self.generator
        if self.d == 1:
            exp = [pow(gen, k, self.p) for k in range(order)]
        else:
            exp, x, g = [], (1,), self._decode(gen)
            for _ in range(order):
                exp.append(self._encode(x))
                x = self._mul(x, g)
        self._exp = exp
        self._dlog = {v: k for k, v in enumerate(exp)}
        if self.d > 1:  # only F_{p^d} adds by the logs
            # Zech logarithms Z(k) = log(1 + g^k), None where 1 + g^k = 0
            p = self.p
            self._zech = [self._dlog.get(v - v % p + (v + 1) % p) for v in exp]

    def gen_power(self, k):
        """The encoding of generator^k, 0 <= k < q - 1."""
        return self._exp[k]

    def is_square(self, a):
        """Whether the unit encoding a is a square: its discrete logarithm is
        even, the generator being a non-square."""
        return not self._dlog[a] & 1

    # -- units -------------------------------------------------------------

    def coefficient(self, n):
        """The encoding an integer names as a coefficient: over F_p it is
        reduced mod p; over F_{p^d} with d > 1 it must already be an
        encoding in [0, q)."""
        if self.d == 1:
            return n % self.p
        if not 0 <= n < self.q:
            raise FieldMismatch(f"coefficient encodings of F_{self.q} lie in [0, {self.q})")
        return n

    def unit(self, value):
        """The unit with the given integer encoding."""
        if self.d == 1:
            value %= self.p
        if not 0 < value < self.q:
            raise ZeroDivisionError(f"{value} is not a unit encoding of {self!r}")
        return FFUnit(self, value)

    def unit_exp(self, k):
        """The unit generator^k."""
        return FFUnit(self, self.gen_power(k % (self.q - 1)))

    def one_unit(self):
        return FFUnit(self, 1)

    def minus_one(self):
        return FFUnit(self, self.neg(1))

    def gen_unit(self):
        return FFUnit(self, self.generator)

    def units(self):
        """All units, as the powers generator^0, ..., generator^(q-2)."""
        return [FFUnit(self, v) for v in self._exp]

    # -- embeddings --------------------------------------------------------

    def embedding(self, big):
        """Encoding map of the canonical embedding into a compatible extension.

        The class of x in self = F_p[x]/(modulus) is sent to the smallest root
        (in integer encoding) of the modulus inside `big`.
        """
        if big is self:
            return None  # identity
        if big.p != self.p or big.d % self.d != 0:
            raise FieldMismatch(f"no embedding F_{self.q} -> F_{big.q}")
        key = id(big)
        found = self._embeddings.get(key)
        if found is not None:
            return found
        # coefficients over F_p are encoded alike in self, F_p and big
        modulus = Poly(big, self.modulus)
        root = next((a for a in range(big.q) if modulus.evaluate(a) == 0), None)
        if root is None:
            raise FieldMismatch("modulus has no root in extension")
        table = [Poly(big, self._decode(v)).evaluate(root) for v in range(self.q)]
        self._embeddings[key] = table
        return table

    def embed_value(self, big, value):
        table = self.embedding(big)
        return value if table is None else table[value]

    def __repr__(self):
        return f"F_{self.q}" if self.d > 1 else f"F_{self.p}"


_FIELD_CACHE = {}


def ff_build(p, d=1):
    """Deterministic model of F_{p^d}: smallest modulus, smallest generator.
    The rules run before the cache, so a lowered bound applies to a field
    built earlier; the bound test never builds p^d much beyond the bound."""
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is excluded")
    if d < 1:
        raise SizeBound("extension degree must be >= 1")
    limit = size_bound()
    if abs(p) > 1 and d > limit.bit_length() or abs(p) ** d > limit:
        raise SizeBound(f"p^d = {p}^{d} exceeds bound {limit}")
    if factorint(p) != {p: 1}:
        raise NotPrime(f"{p} is not prime")
    key = (p, d)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if d == 1:
        fld = FiniteField(p, 1, (0, 1))
    else:
        # the lexicographically smallest monic irreducible of degree d over F_p
        fld = FiniteField(p, d, first_monic_irreducible(ff_build(p, 1), d).coeffs)
    _FIELD_CACHE[key] = fld
    return fld


def ff_build_q(q):
    """ff_build from a prime power q."""
    fac = factorint(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    (p, d), = fac.items()
    return ff_build(p, d)


class FFUnit:
    """A unit of a finite field, held as its encoding (nonzero, below q).
    Interned: `FFUnit(field, value)` is the one live unit of that value in
    the field's `_unit_table`, so units compare by identity and are read-only."""

    __slots__ = ("field", "value", "__weakref__")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __new__(cls, field, value):
        u = field._unit_table.get(value)
        if u is None:
            u = field._unit_table[value] = object.__new__(cls)
            object.__setattr__(u, "field", field)
            object.__setattr__(u, "value", value)
        return u

    def __repr__(self):
        data = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"{type(self).__name__}({data})"

    def mul(self, other):
        if other.field is not self.field:
            raise FieldMismatch("units of different fields")
        return FFUnit(self.field, self.field.mul(self.value, other.value))

    def inv(self):
        return FFUnit(self.field, self.field.inv(self.value))

    def pow(self, e):
        return FFUnit(self.field, self.field.pow(self.value, e))

    def negate(self):
        """The unit -u."""
        return FFUnit(self.field, self.field.neg(self.value))

    def is_square(self):
        """Whether u is a square, as its field decides it."""
        return self.field.is_square(self.value)

    def is_one(self):
        return self.value == 1

    def embed(self, big):
        return FFUnit(big, self.field.embed_value(big, self.value))

    def __str__(self):
        return str(self.value)


# ---------------------------------------------------------------------------
# polynomials over a finite field
# ---------------------------------------------------------------------------


class Poly(NamedTuple):
    """A univariate polynomial over a finite field, coefficients low to high.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.  A Poly is the read-only tuple (field, coeffs) and
    hashes and compares as that tuple, in C: fields by identity.
    """

    field: FiniteField
    coeffs: tuple

    @staticmethod
    def make(field, coeffs):
        """The polynomial with integer coefficients read by
        `field.coefficient`."""
        return Poly._trimmed(field, [field.coefficient(c) for c in coeffs])

    @staticmethod
    def _trimmed(field, coeffs):
        # coeffs: a list of valid encodings that the caller hands over
        return Poly(field, _trim(coeffs))

    @staticmethod
    def zero(field):
        return Poly(field, ())

    @staticmethod
    def const(field, c):
        return Poly.make(field, [c])

    @staticmethod
    def var(field):
        return Poly(field, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def add(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly._trimmed(F, out)

    def neg(self):
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        return Poly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def pow(self, e):
        """self^e for e >= 0, by repeated squaring."""
        if not e:
            return Poly(self.field, (1,))
        out, square = None, self
        while True:
            if e & 1:
                out = square if out is None else out.mul(square)
            e >>= 1
            if not e:
                return out
            square = square.mul(square)

    def scale(self, c):
        F = self.field
        if c == 0:
            return Poly.zero(F)
        return Poly(F, tuple(F.mul(c, x) for x in self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        F = self.field
        quo, rem = _divmod(F, self.coeffs, other.coeffs)
        return Poly(F, quo), Poly(F, rem)

    def mod(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        return self if lead == 1 else self.scale(self.field.inv(lead))

    def evaluate(self, point):
        """The value at a point of the coefficient field (Horner's rule)."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def __str__(self):
        from .exprtext import format_poly

        return format_poly(self)


def monic_irreducibles(field, deg):
    """All monic irreducible polynomials of the given degree, lexicographic."""
    cache = field._irreducibles
    if deg in cache:
        return cache[deg]
    if field.q**deg > 10 * size_bound() * field.q:
        raise DegreeBound(f"too many degree-{deg} candidates over F_{field.q}")
    out = []
    for cand in _candidate_polys(field, deg):
        if _is_irreducible(field, cand):
            out.append(cand)
    cache[deg] = out
    return out


def first_monic_irreducible(field, deg):
    """monic_irreducibles(field, deg)[0], found by a lazy scan of the same
    candidates that stops at the first irreducible one."""
    return next(c for c in _candidate_polys(field, deg) if _is_irreducible(field, c))


def _candidate_polys(field, deg):
    # the constant coefficient varies fastest
    for digits in product(range(field.q), repeat=deg):
        yield Poly(field, digits[::-1] + (1,))


def _trim(coeffs):
    """The tuple of a coefficient list without its zero top digits."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _kernel_mul(field, a, b):
    """The product of two digit lists in the kernels' representation: over
    F_p plain ints, the product not yet reduced mod p; over F_{p^d} the
    discrete logs, None for 0, adding by g^r + g^s = g^(r + Z(s - r))."""
    if not a or not b:
        return []
    if field.d == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    zech, order = field._zech, field._order
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x is not None:
            for j, y in enumerate(b, i):
                if y is not None:
                    r = out[j]
                    if r is None:
                        out[j] = x + y
                    else:
                        z = zech[(x + y - r) % order]
                        out[j] = None if z is None else r + z
    return out


def _kernel_modulus(field, m):
    """m, nonzero and trimmed, as `_kernel_reduce` reads it: n = deg m, the
    kernel digit of 1 / lead(m), and the nonzero (index, digit) of -m below."""
    n = len(m) - 1
    if field.d == 1:
        p = field.p
        return n, pow(m[-1], -1, p), [(j, p - y) for j, y in enumerate(m[:n]) if y]
    dlog, half = field._dlog, field._order // 2  # -1 = g^half
    return n, -dlog[m[-1]], [(j, dlog[y] + half) for j, y in enumerate(m[:n]) if y]


def _kernel_reduce(field, digits, modulus):
    """Divide `digits`, in the kernels' representation, by m (`_kernel_modulus`)
    in place.  From the top, each digit c over the lead of m is replaced by
    the quotient digit c / lead(m), which times -m is added below it; then
    digits[:n] is the remainder and digits[n:] the quotient, n = deg m."""
    n, inv, neg = modulus
    if field.d == 1:
        p = field.p
        for i in range(len(digits) - 1, n - 1, -1):
            c = digits[i] % p
            if c:
                c = c * inv % p
                for j, y in neg:
                    digits[i - n + j] += c * y
            digits[i] = c
        return
    zech, order = field._zech, field._order
    for i in range(len(digits) - 1, n - 1, -1):
        c = digits[i]
        if c is not None:
            c += inv
            digits[i] = c
            for j, y in neg:
                k = i - n + j
                r = digits[k]
                if r is None:
                    digits[k] = c + y
                else:
                    z = zech[(c + y - r) % order]
                    digits[k] = None if z is None else r + z


def _kernel_mulmod(field, a, b, modulus):
    """a * b mod m in the kernels' representation, each digit brought back
    below p, or each log below the group order, so that chains stay small."""
    digits = _kernel_mul(field, a, b)
    _kernel_reduce(field, digits, modulus)
    mod = field.p if field.d == 1 else field._order
    return [c if c is None else c % mod for c in digits[: modulus[0]]]


def _to_kernel(field, a):
    """A coefficient tuple as a digit list in the kernels' representation.
    A residue field has no tables and this reads them first, so every
    kernel over one stops with FieldMismatch on every input."""
    if field.d == 1:
        return list(a)
    dlog = field._dlog
    return [dlog[c] if c else None for c in a]


def _from_kernel(field, digits):
    if field.d == 1:
        p = field.p
        return [c % p for c in digits]
    exp, order = field._exp, field._order
    return [0 if r is None else exp[r % order] for r in digits]


def _mul(field, a, b):
    """The product of two trimmed coefficient tuples."""
    a, b = _to_kernel(field, a), _to_kernel(field, b)
    return tuple(_from_kernel(field, _kernel_mul(field, a, b)))


def _divmod(field, a, m):
    """(quotient, remainder) of a trimmed coefficient tuple by a nonzero one,
    both trimmed (the quotient's top digit is a's over m's)."""
    n = len(m) - 1
    digits = _to_kernel(field, a)
    _kernel_reduce(field, digits, _kernel_modulus(field, m))
    return tuple(_from_kernel(field, digits[n:])), _trim(_from_kernel(field, digits[:n]))


def _mulmod(field, a, b, m):
    """a * b mod m for trimmed coefficient tuples, m of degree >= 1; trimmed.
    The product is reduced in the kernels' representation, so no quotient
    is kept and no log is read back before the remainder."""
    a, b = _to_kernel(field, a), _to_kernel(field, b)
    return _trim(_from_kernel(field, _kernel_mulmod(field, a, b, _kernel_modulus(field, m))))


def _powmod(field, a, e, m):
    """a^e mod m (e >= 0) for coefficient tuples, m monic of degree >= 1, by a
    square-and-multiply chain in the kernels' representation."""
    a, result, modulus = _to_kernel(field, a), _to_kernel(field, (1,)), _kernel_modulus(field, m)
    while e:
        if e & 1:
            result = _kernel_mulmod(field, result, a, modulus)
        e >>= 1
        if e:
            a = _kernel_mulmod(field, a, a, modulus)
    return _trim(_from_kernel(field, result))


def _gcd(field, a, b):
    """The monic gcd, as a Poly, of two coefficient tuples not both zero."""
    while b:
        a, b = b, _divmod(field, a, b)[1]
    return Poly(field, a).monic()


def _sub(field, a, b):
    """a - b for coefficient tuples, trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        if c:
            out[i] = field.sub(out[i], c)
    return _trim(out)


def _is_irreducible(field, f):
    """Rabin's test for a monic f of degree n: f divides t^(q^n) - t, and
    t^(q^(n/r)) - t is prime to f for every prime r dividing n."""
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    frob = [(0, 1)]  # t^(q^i) mod f
    for _ in range(n):
        frob.append(_powmod(field, frob[-1], field.q, f.coeffs))
    if frob[n] != (0, 1):
        return False
    return all(
        _gcd(field, f.coeffs, _sub(field, frob[n // r], (0, 1))).is_one() for r in factorint(n)
    )


def _derivative(f):
    field = f.field
    p = field.p
    return Poly._trimmed(field, [field.mul(i % p, c) for i, c in enumerate(f.coeffs) if i])


def _pth_root(f):
    """g with g^p = f, for f a polynomial in t^p."""
    field = f.field
    e = field.q // field.p  # c^(1/p) = c^(q/p) in F_q
    return Poly._trimmed(field, [field.pow(c, e) for c in f.coeffs[:: field.p]])


def _square_free(f):
    """[(g, m)] with f = prod g^m, the g monic, square-free, pairwise prime
    (f monic of degree >= 1)."""
    field = f.field
    df = _derivative(f)
    if df.is_zero():
        return [(g, m * field.p) for g, m in _square_free(_pth_root(f))]
    c = _gcd(field, f.coeffs, df.coeffs)
    if c.is_one():
        return [(f, 1)]
    out = []
    w = f.divmod(c)[0]
    i = 1
    while w.degree > 0:
        y = _gcd(field, w.coeffs, c.coeffs)
        fac = w.divmod(y)[0]
        if fac.degree > 0:
            out.append((fac, i))
        w, c, i = y, c.divmod(y)[0], i + 1
    if c.degree > 0:
        out.extend((g, m * field.p) for g, m in _square_free(_pth_root(c)))
    return out


def _distinct_degree(f):
    """[(g, k)]: g the product of the irreducible factors of degree k of a
    monic square-free f."""
    field = f.field
    out = []
    h = (0, 1)
    k = 0
    while f.degree >= 2 * (k + 1):
        k += 1
        h = _powmod(field, h, field.q, f.coeffs)
        g = _gcd(field, f.coeffs, _sub(field, h, (0, 1)))
        if g.degree > 0:
            out.append((g, k))
            f = f.divmod(g)[0]
            h = _divmod(field, h, f.coeffs)[1]
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree(g, k):
    """The irreducible factors of a monic g whose irreducible factors are
    distinct and all of degree k (Cantor-Zassenhaus, q odd).

    Split candidates a are the monic polynomials of degree 1, 2, ... below
    deg g in `_candidate_polys` order, so the result is the same in every
    process.  The scan ends: for g = g1 * g2 * ..., the Chinese remainder
    theorem gives some a of degree < deg g that is 1 mod g1 and a non-square
    mod g2, and its monic multiple splits off g1 through
    gcd(g, a^((q^k - 1)/2) - 1)."""
    if g.degree == k:
        return [g]
    field = g.field
    e = (field.q**k - 1) // 2
    for deg in range(1, g.degree):
        for a in _candidate_polys(field, deg):
            d = _gcd(field, g.coeffs, _sub(field, _powmod(field, a.coeffs, e, g.coeffs), (1,)))
            if 0 < d.degree < g.degree:
                return _equal_degree(d, k) + _equal_degree(g.divmod(d)[0], k)
    raise AssertionError("no split candidate: g is not a product of distinct degree-k factors")


def _listing_order(poly):
    # the order of monic_irreducibles: by degree, then by the candidate index
    return (poly.degree, poly.coeffs[::-1])


def poly_factor(f):
    """Factor a nonzero polynomial of degree at most DEFAULT_DEGREE_BOUND
    into monic irreducibles: square-free split, then distinct-degree and
    equal-degree (Cantor-Zassenhaus) splitting.

    Returns (leading unit, {monic irreducible Poly: multiplicity}), the
    factors ordered by degree and then as in `monic_irreducibles`.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree > DEFAULT_DEGREE_BOUND:
        raise DegreeBound(
            f"degree {f.degree} exceeds factorization cap {DEFAULT_DEGREE_BOUND}"
        )
    lead = f.field.unit(f.lead())
    if f.degree == 0:
        return lead, {}
    if f.degree == 1:
        return lead, {f.monic(): 1}
    out = {}
    for g, m in _square_free(f.monic()):
        for h, k in _distinct_degree(g):
            for irreducible in _equal_degree(h, k):
                out[irreducible] = m
    return lead, {g: out[g] for g in sorted(out, key=_listing_order)}


# ---------------------------------------------------------------------------
# the rational function field F_q(t) and its places
# ---------------------------------------------------------------------------


class RatFuncField:
    """The rational function field F_q(t), seen through its unit group."""

    def __init__(self, base):
        self.base = base
        self._residue_cache = {}
        self._factored = {}  # Poly -> RatFuncUnit, at most FACTOR_MEMO_CAP
        self._unit_table = WeakValueDictionary()  # (const, factors) -> live unit
        self._one = RatFuncUnit(self, 1, ())  # held: else rebuilt for most inputs

    def var_poly(self):
        return Poly.var(self.base)

    def one_unit(self):
        return self._one

    def minus_one(self):
        return RatFuncUnit(self, self.base.neg(1), ())

    def constant(self, u):
        if isinstance(u, FFUnit):
            if u.field is not self.base:
                raise FieldMismatch("constant from a different base field")
            return RatFuncUnit(self, u.value, ())
        return RatFuncUnit(self, self.base.unit(u).value, ())

    def t_unit(self):
        return RatFuncUnit(self, 1, ((self.var_poly(), 1),))

    def from_poly(self, f):
        """The factored unit of a nonzero polynomial, remembered per
        polynomial until FACTOR_MEMO_CAP are held; past the cap a polynomial
        is factored on every call."""
        found = self._factored.get(f)
        if found is None:
            if f.is_zero():
                raise ZeroPolynomial("0 is not a unit of F_q(t)")
            lead, fac = poly_factor(f)
            found = RatFuncUnit(
                self, lead.value, tuple(sorted(fac.items(), key=_factor_sort_key))
            )
            if len(self._factored) < FACTOR_MEMO_CAP:
                self._factored[f] = found
        return found

    def from_fraction(self, num, den):
        return self.from_poly(num).mul(self.from_poly(den).inv())

    def residue_data(self, place):
        found = self._residue_cache.get(place)
        if found is None:
            found = _ResidueData(self, place)
            self._residue_cache[place] = found
        return found

    def __repr__(self):
        return f"{self.base!r}(t)"


_RF_CACHE = {}


def rat_func_field(base):
    f = _RF_CACHE.get(id(base))
    if f is None:
        f = RatFuncField(base)
        _RF_CACHE[id(base)] = f
    return f


def _factor_sort_key(item):
    poly, _ = item
    return (poly.degree, poly.coeffs)


class RatFuncUnit:
    """A unit of F_q(t): constant times a product of monic irreducibles.

    `factors` is a sorted tuple of (monic irreducible Poly, nonzero exponent);
    `const` is the base-field encoding of the leading constant.  By unique
    factorization this data is a normal form, and units are interned on it
    in rf's weak-valued `_unit_table`, which holds only live units: they key
    every symbol term dict, and hash and compare by identity."""

    __slots__ = ("rf", "const", "factors", "__weakref__")
    __setattr__, __delattr__, __repr__ = FFUnit.__setattr__, FFUnit.__delattr__, FFUnit.__repr__

    def __new__(cls, rf, const, factors):
        u = rf._unit_table.get((const, factors))
        if u is None:
            u = rf._unit_table[const, factors] = object.__new__(cls)
            object.__setattr__(u, "rf", rf)
            object.__setattr__(u, "const", const)
            object.__setattr__(u, "factors", factors)
        return u

    @property
    def field(self):
        return self.rf

    def mul(self, other):
        if other.rf is not self.rf:
            raise FieldMismatch("units of different function fields")
        acc = dict(self.factors)
        for p, e in other.factors:
            newe = acc.get(p, 0) + e
            if newe:
                acc[p] = newe
            else:
                acc.pop(p, None)
        return RatFuncUnit(
            self.rf,
            self.rf.base.mul(self.const, other.const),
            tuple(sorted(acc.items(), key=_factor_sort_key)),
        )

    def inv(self):
        return RatFuncUnit(
            self.rf, self.rf.base.inv(self.const), tuple((p, -e) for p, e in self.factors)
        )

    def pow(self, e):
        if e == 0:
            return self.rf.one_unit()
        return RatFuncUnit(
            self.rf, self.rf.base.pow(self.const, e), tuple((p, k * e) for p, k in self.factors)
        )

    def negate(self):
        """The unit -u: only the constant changes sign."""
        return RatFuncUnit(self.rf, self.rf.base.neg(self.const), self.factors)

    def is_one(self):
        return self.const == 1 and not self.factors

    def valuation(self, place):
        if place.poly is None:
            return -sum(e * p.degree for p, e in self.factors)
        return next((e for p, e in self.factors if p == place.poly), 0)

    def to_fraction(self):
        """Expand to a (numerator, denominator) pair of polynomials, each of
        degree at most 3 * DEFAULT_DEGREE_BOUND (`expand_fraction`)."""
        return expand_fraction(self.rf.base, self.const, self.factors)

    def __str__(self):
        from .exprtext import format_rat_unit

        return format_rat_unit(self)


def check_expansion(*degrees):
    """Refuse, with DegreeBound, to expand a fraction a side of which has a
    degree above the cap 3 * DEFAULT_DEGREE_BOUND."""
    if max(degrees) > 3 * DEFAULT_DEGREE_BOUND:
        raise DegreeBound("fraction expansion exceeds the degree cap")


def expand_fraction(base, const, factors):
    """The (numerator, denominator) pair of const * prod p^k over the
    (Poly, k) in `factors`, const an encoding of the base field (0 included).
    Each side's degree is summed, and checked against the cap
    (`check_expansion`), before anything is multiplied."""
    degrees = [0, 0]  # numerator, denominator
    for p, k in factors:
        degrees[k < 0] += abs(k) * max(p.degree, 0)
    check_expansion(*degrees)
    num, den = Poly._trimmed(base, [const]), Poly(base, (1,))
    for p, k in factors:
        if k > 0:
            num = num.mul(p.pow(k))
        else:
            den = den.mul(p.pow(-k))
    return num, den


@dataclass(frozen=True)
class Place:
    """A place of F_q(t): a monic irreducible polynomial, or infinity."""

    rf: RatFuncField
    poly: object  # Poly or None (infinity)

    def __post_init__(self):
        if self.poly is not None:
            if not self.poly.is_monic() or not _is_irreducible(self.poly.field, self.poly):
                raise NotRegularAtPlace("places are monic irreducible polynomials")

    @staticmethod
    def _known(rf, poly):
        # poly: a monic irreducible the caller vouches for (a poly_factor
        # factor), so the irreducibility test is not run again
        place = object.__new__(Place)
        object.__setattr__(place, "rf", rf)
        object.__setattr__(place, "poly", poly)
        return place

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def uniformizer(self):
        if self.poly is None:
            return RatFuncUnit(self.rf, 1, ((self.rf.var_poly(), -1),))
        return RatFuncUnit(self.rf, 1, ((self.poly, 1),))

    def __str__(self):
        if self.poly is None:
            return "infinity"
        from .exprtext import format_poly

        return format_poly(self.poly)


class QuotientField(FiniteField):
    """The residue field F_q[t]/(P) of a place P of degree k >= 2, built
    without tables.

    The class of c_0 + c_1 t + ... + c_{k-1} t^(k-1) is encoded as the sum of
    c_i q^i (c_i encodings of F_q), and arithmetic is polynomial arithmetic
    mod P over F_q: the encoding and multiply of `FiniteField` over the base
    F_q.  It has no generator and takes no logarithm: units need only
    multiply, power, the extended-Euclid inverse and the Jacobi symbol.
    """

    def __init__(self, poly):
        base = poly.field
        self.base = base
        self.modulus = poly.coeffs  # P over F_q, low to high, monic
        self.p = base.p
        self.d = base.d * poly.degree
        self.q = base.q**poly.degree
        self._unit_table = WeakValueDictionary()  # weak: q is unbounded over all P

    def add(self, a, b):
        base = self.base
        return self._encode(Poly(base, self._decode(a)).add(Poly(base, self._decode(b))).coeffs)

    def neg(self, a):
        return self._encode(Poly(self.base, self._decode(a)).neg().coeffs)

    def mul(self, a, b):
        if a == 1 or b == 1:
            return a * b
        return self._encode(self._mul(self._decode(a), self._decode(b)))

    def inv(self, a):
        """Extended Euclid on coefficient tuples: s * a = r mod P, r constant."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        base = self.base
        r0, r1, s0, s1 = self.modulus, self._decode(a), (), (1,)
        while len(r1) > 1:
            quo, rem = _divmod(base, r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, _sub(base, s0, _mul(base, quo, s1))
        c = base.inv(r1[0])
        return self._encode([base.mul(c, x) for x in s1])

    def pow(self, a, e):
        if a == 0:
            return FiniteField.pow(self, a, e)
        if e < 0:
            a, e = self.inv(a), -e
        e %= self.q - 1
        if e == 0 or a == 1:
            return 1
        if e == 1:
            return a
        return self._encode(self._pow(self._decode(a), e))

    def is_square(self, a):
        """The Jacobi symbol (a/P) of F_q[t] by quadratic reciprocity (Rosen,
        Number Theory in Function Fields, GTM 210, ch. 3), in one Euclidean
        algorithm.  For a prime to m, with leading coefficients alpha and mu,
        chi the square class of F_q and (a/m) meaning (a/(m/mu)):
          (alpha/m) = chi(alpha)^deg m, and for deg a >= 1
          (a/m) = chi(alpha)^deg m chi(mu)^deg a (-1)^((q-1)/2 deg a deg m)
                  (m mod a / a)."""
        base = self.base
        odd_half = (base.q - 1) // 2 & 1  # q = 3 mod 4: the swap has a sign
        a, m = self._decode(a), self.modulus
        sign = 0  # the parity of the -1 factors so far
        while True:  # 0 <= deg a < deg m, a prime to m
            da, dm = len(a) - 1, len(m) - 1
            if dm & 1 and not base.is_square(a[-1]):
                sign ^= 1
            if not da:
                return not sign
            if da & 1:
                sign ^= (dm & odd_half) ^ (not base.is_square(m[-1]))
            a, m = _divmod(base, m, a)[1], a

    def embedding(self, big):
        raise FieldMismatch(f"no embeddings are defined for the residue field {self!r}")

    def _no_generator(self, *args):
        raise FieldMismatch(f"the residue field {self!r} has no generator")

    units = unit_exp = gen_unit = gen_power = _no_generator

    # the polynomial kernels and the irreducible listings read these, so
    # polynomial algorithms over a residue field stop here
    @property
    def _exp(self):
        raise FieldMismatch(f"no polynomial algorithms run over the residue field {self!r}")

    _dlog = _irreducibles = _exp


class _ResidueData:
    """Residue field of a place, with the multiplicative reduction map: F_q
    at infinity and at places of degree 1, F_q[t]/(P) at a place P of
    degree >= 2."""

    def __init__(self, rf, place):
        self.place = place
        self.kappa = QuotientField(place.poly) if place.degree >= 2 else rf.base
        self._images = {}  # monic irreducible Poly -> its encoding in kappa

    def _image(self, poly):
        """The encoding in kappa of the class of a monic irreducible poly != P,
        computed once per poly."""
        found = self._images.get(poly)
        if found is None:
            place_poly = self.place.poly
            if place_poly.degree == 1:  # t - a: evaluate at a
                found = poly.evaluate(self.kappa.neg(place_poly.coeffs[0]))
            else:
                found = self.kappa._encode(poly.mod(place_poly).coeffs)
            self._images[poly] = found
        return found

    def reduce_unit(self, u):
        """Reduce a unit of valuation 0 at the place to a residue-field unit."""
        if u.valuation(self.place) != 0:
            raise NotRegularAtPlace(f"unit has nonzero valuation at {self.place}")
        return FFUnit(self.kappa, self.reduce_local(u))

    def reduce_local(self, a, pi_bar=1):
        """The residue of the local unit a * pi^-e, e = v(a), as its encoding
        in kappa: no unit is built, so a caller that reads the value once
        makes no entry in kappa's unit table.  It is read from a's factors
        with P's own factor skipped; pi_bar encodes the reduction of pi over
        the standard uniformizer.  A constant keeps its encoding, and at
        infinity, where every stored factor is monic, a unit reduces to its
        constant.  The factors with negative exponents, and pi_bar^e for
        e > 0, are multiplied apart: one inversion at most."""
        kappa, value, den = self.kappa, a.const, 1
        place_poly = self.place.poly
        if place_poly is not None:
            for poly, k in a.factors:
                if poly == place_poly:
                    continue
                if k > 0:
                    value = kappa.mul(value, kappa.pow(self._image(poly), k))
                else:
                    den = kappa.mul(den, kappa.pow(self._image(poly), -k))
        if pi_bar != 1:
            e = a.valuation(self.place)
            if e > 0:
                den = kappa.mul(den, kappa.pow(pi_bar, e))
            elif e < 0:
                value = kappa.mul(value, kappa.pow(pi_bar, -e))
        if den != 1:
            value = kappa.mul(value, kappa.inv(den))
        return value
