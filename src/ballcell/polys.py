"""Sparse exact polynomials in one and two variables.

Coefficients are ``fractions.Fraction`` everywhere; there is no floating point
in this module.  ``Poly`` maps exponent -> coefficient for a single variable
(the letter is chosen at render time, so the same class serves polynomials in
x and polynomials in n).  ``Poly2`` maps (deg_n, deg_x) -> coefficient for the
bivariate ring Q[n, x].  Both share one sparse core, ``_Sparse``, which holds
construction, equality, the ring operations and the content; each class adds
only the queries that depend on its monomial keys.

Degrees in this package stay small (at most a few hundred) while coefficients
grow large, so the representation favors simplicity: dict arithmetic on top of
big-integer Fractions.  Values are never mutated after construction; every
operation returns a fresh object, which keeps everything safe to share across
threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

Q0 = Fraction(0)
Q1 = Fraction(1)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class _Sparse:
    """Sparse map monomial key -> nonzero Fraction, the core of Poly and Poly2.

    A subclass names the key of the constant monomial (``_UNIT``), validates
    keys given from outside (``_check_key``) and multiplies two keys
    (``_key_mul``).  Only input from outside goes through ``__init__``'s
    checks: every operation here drops the zero coefficients it produces, so
    its result adopts its dict as is.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | None = None):
        c = {}
        if coeffs:
            for key, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    c[self._check_key(key)] = v
        self._c = c

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
        v = _as_fraction(v)
        return cls._adopt({cls._UNIT: v} if v else {})

    def items(self):
        return self._c.items()

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
        return f"{type(self).__name__}({dict(sorted(self._c.items()))!r})"

    def __neg__(self):
        return self._adopt({k: -v for k, v in self._c.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            s = c.get(k, Q0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
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
        key_mul = self._key_mul
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = key_mul(k1, k2)
                s = c.get(k, Q0) + v1 * v2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        return self._adopt(c)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients.

        Zero polynomial has content 0.
        """
        if self.is_zero():
            return Q0
        den = lcm(*(v.denominator for v in self._c.values()))
        num = gcd(*(v.numerator * den // v.denominator for v in self._c.values()))
        return Fraction(abs(num), den)


class Poly(_Sparse):
    """Univariate polynomial, sparse map exponent -> nonzero Fraction."""

    __slots__ = ()
    _UNIT = 0
    _key_mul = staticmethod(add)

    @staticmethod
    def _check_key(e) -> int:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        return int(e)

    @classmethod
    def var(cls) -> "Poly":
        """The monomial of degree 1."""
        return cls._adopt({1: Q1})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Fraction]]) -> "Poly":
        c: dict[int, Fraction] = {}
        for e, v in pairs:
            c[e] = c.get(e, Q0) + _as_fraction(v)
        return cls(c)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Q0)

    def leading_coeff(self) -> Fraction:
        return self._c[max(self._c)] if self._c else Q0

    def min_exponent(self) -> int:
        """Valuation: smallest exponent with a nonzero coefficient (-1 if zero)."""
        return min(self._c) if self._c else -1

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division over the rationals: self = q*other + r, deg r < deg other."""
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Fraction] = {}
        r = dict(self._c)
        db = other.degree()
        lb = other.leading_coeff()
        while r and max(r) >= db:
            dr = max(r)
            coef = r[dr] / lb
            q[dr - db] = coef
            for e, v in other._c.items():
                e2 = dr - db + e
                s = r.get(e2, Q0) - coef * v
                if s:
                    r[e2] = s
                else:
                    r.pop(e2, None)
        return Poly._adopt(q), Poly._adopt(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def shift(self, k: int) -> "Poly":
        """Multiply by the k-th power of the variable."""
        return Poly({e + k: v for e, v in self._c.items()})

    def derivative(self) -> "Poly":
        return Poly._adopt({e - 1: v * e for e, v in self._c.items() if e > 0})

    def eval(self, x0: Fraction) -> Fraction:
        x0 = _as_fraction(x0)
        total = Q0
        for e, v in self._c.items():
            total += v * x0**e
        return total

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        return Poly._adopt({e: v / lc for e, v in self._c.items()})


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over the rationals.

    gcd(0, q) is the monic normalization of q; gcd(0, 0) is 0.  A monomial
    c*x^e and a nonzero q have gcd x^min(e, valuation of q), read off directly.
    """
    if (len(p._c) == 1 and q._c) or (len(q._c) == 1 and p._c):
        return Poly._adopt({min(*p._c, *q._c): Q1})
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_div_exact(p: Poly, d: Poly) -> Poly:
    """Exact division in Q[x]; raises if d does not divide p."""
    q, rem = divmod(p, d)
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# Bivariate layer


class Poly2(_Sparse):
    """Polynomial in Q[n, x], sparse map (deg_n, deg_x) -> nonzero Fraction."""

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _check_key(key) -> tuple[int, int]:
        dn, dx = key
        if dn < 0 or dx < 0:
            raise ValueError(f"negative exponent in {key}")
        return (int(dn), int(dx))

    @staticmethod
    def _key_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def var_n(cls) -> "Poly2":
        return cls._adopt({(1, 0): Q1})

    @classmethod
    def var_x(cls) -> "Poly2":
        return cls._adopt({(0, 1): Q1})

    @classmethod
    def from_poly_in_n(cls, p: Poly) -> "Poly2":
        return cls._adopt({(e, 0): v for e, v in p.items()})

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._c)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._c.get((0, 0), Q0)

    def degree_n(self) -> int:
        return max((dn for dn, _ in self._c), default=-1)

    def degree_x(self) -> int:
        return max((dx for _, dx in self._c), default=-1)

    def coeff(self, dn: int, dx: int) -> Fraction:
        return self._c.get((dn, dx), Q0)

    def _subs(self, axis: int, v0) -> Poly:
        """Substitute a rational for the variable at `axis` of the key (0 for
        n, 1 for x), leaving a polynomial in the other one."""
        v0 = _as_fraction(v0)
        out: dict[int, Fraction] = {}
        for key, v in self._c.items():
            e = key[1 - axis]
            s = out.get(e, Q0) + v * v0 ** key[axis]
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly._adopt(out)

    def subs_n(self, n0: Fraction) -> Poly:
        """Substitute a rational for n, leaving a polynomial in x."""
        return self._subs(0, n0)

    def subs_x(self, x0: Fraction) -> Poly:
        """Substitute a rational for x, leaving a polynomial in n."""
        return self._subs(1, x0)

    def eval(self, n0: Fraction, x0: Fraction) -> Fraction:
        n0, x0 = _as_fraction(n0), _as_fraction(x0)
        total = Q0
        for (dn, dx), v in self._c.items():
            total += v * n0**dn * x0**dx
        return total

    # -- structure as a polynomial in x over Q[n] -------------------------

    def as_x_coeffs(self) -> dict[int, Poly]:
        """View as {deg_x: coefficient polynomial in n}."""
        out: dict[int, dict[int, Fraction]] = {}
        for (dn, dx), v in self._c.items():
            out.setdefault(dx, {})[dn] = v
        return {dx: Poly._adopt(c) for dx, c in out.items()}

    @classmethod
    def from_x_coeffs(cls, coeffs: Mapping[int, Poly]) -> "Poly2":
        c: dict[tuple[int, int], Fraction] = {}
        for dx, p in coeffs.items():
            for dn, v in p.items():
                c[(dn, dx)] = v
        return cls(c)

    def head_coeff(self) -> Fraction:
        """Coefficient of the head term in canonical term order.

        Canonical order lists terms by degree in n descending, then degree in
        x ascending; the head term is the first one.  It is the sign anchor
        for normalized rational functions and gcds, chosen so that the usual
        hand-written forms (n - x, 2 - x, n - 1) come out with positive head.
        """
        if not self._c:
            raise ValueError("zero polynomial has no head term")
        dn, dx = max(self._c, key=lambda k: (k[0], -k[1]))
        return self._c[(dn, dx)]

    content_rational = _Sparse.content


def _content_in_x(p: Poly2) -> Poly:
    """Monic gcd over Q[n] of the x-coefficient polynomials."""
    cont = Poly.zero()
    for poly_n in p.as_x_coeffs().values():
        cont = poly_gcd(cont, poly_n)
        if cont.is_constant() and not cont.is_zero():
            break
    return cont


def _primitive_in_x(p: Poly2) -> Poly2:
    cont = _content_in_x(p)
    if cont.is_zero() or (cont.is_constant() and cont.coeff(0) == 1):
        return p
    return poly2_div_exact(p, Poly2.from_poly_in_n(cont))


def poly2_div_exact(p: Poly2, d: Poly2) -> Poly2:
    """Exact division in Q[n, x]; raises if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    pc = p.as_x_coeffs()
    dc = d.as_x_coeffs()
    ddx = max(dc)
    lead = dc[ddx]
    q: dict[int, Poly] = {}
    while pc:
        pdx = max(pc)
        if pdx < ddx:
            raise ValueError("inexact polynomial division")
        qc, rem = divmod(pc[pdx], lead)
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        q[pdx - ddx] = qc
        for dx, cf in dc.items():
            e = pdx - ddx + dx
            s = pc.get(e, Poly.zero()) - qc * cf
            if s.is_zero():
                pc.pop(e, None)
            else:
                pc[e] = s
    return Poly2.from_x_coeffs(q)


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b, both nonempty {deg_x: Poly in n} views."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shift = dr - db
        # r <- lb*r - lr * x^shift * b ; kills the x^dr term without division.
        new: dict[int, Poly] = {}
        for e, cf in r.items():
            new[e] = cf * lb
        for e, cf in b.items():
            e2 = e + shift
            s = new.get(e2, Poly.zero()) - lr * cf
            if s.is_zero():
                new.pop(e2, None)
            else:
                new[e2] = s
        new.pop(dr, None)
        r = new
    return r


def poly2_gcd(p: Poly2, q: Poly2) -> Poly2:
    """GCD over Q[n, x] via content/primitive-part recursion on x.

    The result is unique up to a rational constant; it is normalized to have
    coprime integer coefficients and a positive head term (see
    ``Poly2.head_coeff``).
    """
    if p.is_zero():
        return _normalize_gcd(q)
    if q.is_zero():
        return _normalize_gcd(p)

    cont_gcd = poly_gcd(_content_in_x(p), _content_in_x(q))
    a = _primitive_in_x(p)
    b = _primitive_in_x(q)
    if a.degree_x() < b.degree_x():
        a, b = b, a
    # Primitive pseudo-remainder sequence in x.
    while True:
        bc = b.as_x_coeffs()
        if max(bc) == 0:
            # b is a polynomial in n alone; the x-primitive parts are coprime in x.
            g = Poly2.from_poly_in_n(cont_gcd)
            return _normalize_gcd(g)
        r = _pseudo_rem(a.as_x_coeffs(), bc)
        if not r:
            g = Poly2.from_poly_in_n(cont_gcd) * _primitive_in_x(b)
            return _normalize_gcd(g)
        a, b = b, _primitive_in_x(Poly2.from_x_coeffs(r))


def _normalize_gcd(g: Poly2) -> Poly2:
    if g.is_zero():
        return g
    c = g.content()
    g = g * (1 / c)
    if g.head_coeff() < 0:
        g = -g
    return g
