"""Sparse exact polynomials in one and two variables.

``Poly`` maps exponent -> coefficient for a single variable (the letter is
chosen at render time, so the same class serves polynomials in x and
polynomials in n).  ``Poly2`` is the bivariate ring Q[n, x] held as a
polynomial in x over Q[n]: it maps deg_x -> nonzero ``Poly`` in n, the
recursive form on which its gcd, exact division, series and moments run.
Both share one sparse core, ``_Sparse``, which holds construction,
equality, the ring operations and the content over int exponent keys; the
ring operations on a Poly2 add and multiply whole rows with Poly's own
arithmetic.  Poly2 adds only its views: the flat (deg_n, deg_x) form of its
constructor, ``items`` (which ``repr`` and ``content`` read), ``coeff`` and
``head_coeff``, and the substitutions, which evaluate row by row.

One scalar rule holds throughout: a coefficient is an ``int`` or a
``fractions.Fraction``, whichever the computation produced.  The
constructors keep an int as an int, the ring operations keep the type they
are given, and only a real division (``monic`` or the ratio of two contents)
turns an int into a Fraction.  There is no floating point in this
module.  The PGF table, the series chain and the moment chain therefore run
over Z or Z[n] on the int coefficients of canonical quotients, dividing with
``int_div_exact`` (long division over Z or Z[n]).

Greatest common divisors and exact division over Q run on the same integer
core: each operand is split by ``primitive`` into its content and an integer
part, gcds are a primitive remainder sequence over Z (``poly_gcd``) or over
Z[n] (``poly2_gcd``), and ``poly2_div_exact`` divides the integer parts with
``int_div_exact``.  Both divisions (exact over Z or Z[n], and the
pseudo-remainders of the sequence: Knuth, TAOCP vol. 2, 4.6.1, Algorithm R)
are one downward sweep, ``_long_division``.

Degrees in this package stay small (at most a few hundred) while coefficients
grow large, so the representation favors simplicity: dict arithmetic on top of
big integers.  Values are never mutated after construction (an operation that
changes nothing may return its operand), which keeps everything safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping


def _scalar(v) -> int | Fraction:
    """`v` as a coefficient: an int or a Fraction as it is, a bool as an int."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class _Sparse:
    """Sparse map exponent -> nonzero coefficient, the core of Poly and
    Poly2: a coefficient is a scalar in a Poly and a Poly in n in a Poly2.

    A subclass supplies its public constructor, ``items`` (the flat terms)
    and ``_map`` (a function applied to every scalar coefficient).  Every
    operation here drops the zero coefficients it produces and keeps the type
    of the coefficients, so its result adopts its dict as is.
    """

    __slots__ = ("_c",)

    @classmethod
    def _adopt(cls, c: dict):
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls):
        return cls._adopt({})

    @classmethod
    def const(cls, v):
        v = _scalar(v)
        return cls._adopt({0: v} if v else {})

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(sorted(self.items()))!r})"

    def __neg__(self):
        return self._adopt({k: -v for k, v in self._c.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            s = c[k] + v if k in c else v
            if s:
                c[k] = s
            else:
                del c[k]
        return self._adopt(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.zero()
            return self._adopt({k: v * other for k, v in self._c.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                if k in c:
                    c[k] += v1 * v2
                else:
                    c[k] = v1 * v2
        return self._adopt({k: v for k, v in c.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not k:
            return self.const(1)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients.

        Zero polynomial has content 0.
        """
        if self.is_zero():
            return Fraction(0)
        # The gcd of reduced fractions a_i/b_i is gcd(a_i)/lcm(b_i).
        values = [v for _, v in self.items()]
        return Fraction(gcd(*(v.numerator for v in values)), lcm(*(v.denominator for v in values)))

    def primitive(self):
        """The content c and self/c, which has coprime int coefficients: self
        itself when it has int coefficients and content 1."""
        c = self.content()
        return c, self._over(c)

    def _over(self, k: Fraction):
        """self / k in one map, for a k that leaves int coefficients; self
        itself when k is 1 and self holds ints."""
        if k == 1 and all(type(v) is int for _, v in self.items()):
            return self
        return self._map(lambda v: v.numerator * k.denominator // (v.denominator * k.numerator))


class Poly(_Sparse):
    """Univariate polynomial, sparse map exponent -> nonzero coefficient."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _scalar(v)
                if v:
                    if e < 0:
                        raise ValueError(f"negative exponent {e}")
                    c[int(e)] = v
        self._c = c

    def items(self):
        return self._c.items()

    def _map(self, f) -> "Poly":
        return Poly._adopt({e: f(v) for e, v in self._c.items()})

    @classmethod
    def var(cls) -> "Poly":
        """The monomial of degree 1."""
        return cls._adopt({1: 1})

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def coeff(self, e: int) -> int | Fraction:
        return self._c.get(e, 0)

    def leading_coeff(self) -> int | Fraction:
        return self._c[max(self._c)] if self._c else 0

    def min_exponent(self) -> int:
        """Valuation: smallest exponent with a nonzero coefficient (-1 if zero)."""
        return min(self._c) if self._c else -1

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def shift(self, k: int) -> "Poly":
        """Multiply by the k-th power of the variable."""
        return Poly({e + k: v for e, v in self._c.items()})

    def eval(self, x0: Fraction) -> int | Fraction:
        x0 = _scalar(x0)
        total = 0
        for e, v in self._c.items():
            total += v * x0**e
        return total

    def monic(self) -> "Poly":
        """self over its leading coefficient; self when that is 0 or 1, -self
        when it is -1, so int coefficients stay ints."""
        lc = Fraction(self.leading_coeff())
        if lc in (0, 1):
            return self
        if lc == -1:
            return -self
        return Poly._adopt({e: v / lc for e, v in self._c.items()})


# ---------------------------------------------------------------------------
# Bivariate layer


class Poly2(_Sparse):
    """Polynomial in Q[n, x], sparse map deg_x -> nonzero Poly in n.

    Built from and viewed as the flat map (deg_n, deg_x) -> coefficient.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping | None = None):
        rows: dict[int, dict[int, int | Fraction]] = {}
        if coeffs:
            for key, v in coeffs.items():
                v = _scalar(v)
                if v:
                    dn, dx = key
                    if dn < 0 or dx < 0:
                        raise ValueError(f"negative exponent in {key}")
                    rows.setdefault(int(dx), {})[int(dn)] = v
        self._c = {dx: Poly._adopt(row) for dx, row in rows.items()}

    def items(self):
        """The flat terms ((deg_n, deg_x), coefficient)."""
        return [((dn, dx), v) for dx, row in self._c.items() for dn, v in row._c.items()]

    def _map(self, f) -> "Poly2":
        return Poly2._adopt({dx: row._map(f) for dx, row in self._c.items()})

    @classmethod
    def const(cls, v) -> "Poly2":
        return cls.from_poly_in_n(Poly.const(v))

    @classmethod
    def var_n(cls) -> "Poly2":
        return cls._adopt({0: Poly.var()})

    @classmethod
    def var_x(cls) -> "Poly2":
        return cls._adopt({1: Poly.const(1)})

    @classmethod
    def from_poly_in_n(cls, p: Poly) -> "Poly2":
        return cls._adopt({0: p} if p else {})

    def is_constant(self) -> bool:
        return self.degree_x() <= 0 and self.degree_n() <= 0

    def degree_n(self) -> int:
        return max((row.degree() for row in self._c.values()), default=-1)

    def degree_x(self) -> int:
        return max(self._c, default=-1)

    def coeff(self, dn: int, dx: int) -> int | Fraction:
        row = self._c.get(dx)
        return row.coeff(dn) if row else 0

    def subs_n(self, n0: Fraction) -> Poly:
        """Substitute a rational for n, leaving a polynomial in x."""
        return Poly._adopt({dx: v for dx, row in self._c.items() if (v := row.eval(n0))})

    def subs_x(self, x0: Fraction) -> Poly:
        """Substitute a rational for x, leaving a polynomial in n."""
        x0 = _scalar(x0)
        return sum((row * x0**dx for dx, row in self._c.items()), Poly.zero())

    def eval(self, n0: Fraction, x0: Fraction) -> int | Fraction:
        return self.subs_n(n0).eval(x0)

    def as_x_coeffs(self) -> dict[int, Poly]:
        """View as {deg_x: coefficient polynomial in n}."""
        return dict(self._c)

    def head_coeff(self) -> int | Fraction:
        """Coefficient of the head term in canonical term order.

        Canonical order lists terms by degree in n descending, then degree in
        x ascending; the head term is the first one.  It is the sign anchor
        for normalized rational functions and gcds, chosen so that the usual
        hand-written forms (n - x, 2 - x, n - 1) come out with positive head.
        """
        if not self._c:
            raise ValueError("zero polynomial has no head term")
        _, row = max(self._c.items(), key=lambda item: (item[1].degree(), -item[0]))
        return row.leading_coeff()


# ---------------------------------------------------------------------------
# Division


def _long_division(rest: dict, divisor: dict, quotient) -> tuple[dict, dict]:
    """Quotient and remainder maps of two polynomials {power: coefficient},
    consuming `rest`: `quotient(c, lead)` forms each step's quotient term
    from the top coefficient of the rest and the divisor's lead."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    divisor = dict(divisor)
    top = max(divisor)
    lead = divisor.pop(top)
    q = {}
    # Each step only touches powers below its own, so one downward sweep
    # visits every power that can still be nonzero.
    for e in range(max(rest, default=-1), top - 1, -1):
        if e not in rest:
            continue
        c = quotient(rest.pop(e), lead)
        q[e - top] = c
        for j, v in divisor.items():
            k = e - top + j
            s = rest[k] - c * v if k in rest else -(c * v)
            if s:
                rest[k] = s
            else:
                del rest[k]
    return q, rest


def _int_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ValueError("inexact polynomial division")
    return q


def int_div_exact(p: Poly | Poly2, d: Poly | Poly2) -> Poly | Poly2:
    """Exact quotient p/d of two polynomials of one class with int
    coefficients, by long division in x over Z (Poly) or over Z[n] (Poly2,
    each step an int long division in n).  The quotient has int coefficients.

    Raises ValueError at the first step that does not divide exactly.  For a
    primitive d this proves that d does not divide p even over Q: by Gauss's
    lemma the rational quotient would have integer coefficients, and long
    division over Q takes the same steps until the first one that is not
    integral.
    """
    q, rest = _long_division(dict(p._c), d._c, int_div_exact if isinstance(p, Poly2) else _int_quotient)
    if rest:
        raise ValueError("inexact polynomial division")
    return p._adopt(q)


# ---------------------------------------------------------------------------
# Greatest common divisors


def _prs_gcd(a: dict, b: dict, content, quotient) -> dict:
    """gcd of two nonzero polynomials {power: coefficient} over a coefficient
    ring R, by Brown's primitive remainder sequence: `content(*cs)` is a gcd
    in R and `quotient(c, g)` an exact division there.  Every pseudo-
    remainder is divided by its content, which keeps the coefficients small.
    The result, unique up to a unit of R, is the gcd of the two contents
    times the last nonzero remainder.
    """
    ca, cb = content(*a.values()), content(*b.values())
    common = content(ca, cb)
    a = {e: quotient(v, ca) for e, v in a.items()}
    b = {e: quotient(v, cb) for e, v in b.items()}
    if max(a) < max(b):
        a, b = b, a
    while top := max(b):
        # The pseudo-remainder: every step of lead^(deg a - deg b + 1)·a
        # over b is exact in R.
        scale = b[top] ** (max(a) - top + 1)
        r = _long_division({e: v * scale for e, v in a.items()}, b, quotient)[1]
        if not r:
            return {e: v * common for e, v in b.items()}
        g = content(*r.values())
        a, b = b, {e: quotient(v, g) for e, v in r.items()}
    # A primitive b constant in x is a unit: the primitive parts are coprime.
    return {0: common}


def _gcd_n(*cs: Poly) -> Poly:
    """gcd in Z[n] of Polys with int coefficients, the content of a Poly2's
    remainder sequence: the same sequence one level down, over Z."""
    g = cs[0]._c
    for c in cs[1:]:
        if g == {0: 1}:
            break
        g = _prs_gcd(g, c._c, gcd, _int_quotient)
    return Poly._adopt(g)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over the rationals, from the remainder
    sequence of the primitive integer parts.

    gcd(0, q) is the monic normalization of q; gcd(0, 0) is 0.  A monomial
    c*x^e and a nonzero q have gcd x^min(e, valuation of q), read off directly.
    """
    if not (p and q):
        return (p + q).monic()
    if len(p._c) == 1 or len(q._c) == 1:
        return Poly._adopt({min(*p._c, *q._c): 1})
    return Poly._adopt(_prs_gcd(p.primitive()[1]._c, q.primitive()[1]._c, gcd, _int_quotient)).monic()


def poly2_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Greatest common divisor over Q[n, x], from the remainder sequence in x
    over Z[n] of the primitive integer parts.

    The result is unique up to a rational constant; it is normalized to have
    coprime integer coefficients and a positive head term (see
    ``Poly2.head_coeff``).
    """
    if not (p and q):
        g = (p + q).primitive()[1]
    else:
        g = Poly2._adopt(_prs_gcd(p.primitive()[1]._c, q.primitive()[1]._c, _gcd_n, int_div_exact))
    return -g if g and g.head_coeff() < 0 else g


def poly2_div_exact(p: Poly | Poly2, d: Poly | Poly2) -> Poly | Poly2:
    """Exact quotient p/d over Q of two polynomials of one class: the
    ``int_div_exact`` of their primitive integer parts times the ratio of
    their contents.  Raises ValueError if d does not divide p.
    """
    cp, p = p.primitive()
    cd, d = d.primitive()
    q = int_div_exact(p, d)
    return q if cp == cd else q * (cp / cd)
