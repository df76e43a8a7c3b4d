"""Reduced rational functions over the exact polynomial layer.

``RatFunc`` is a quotient of univariate polynomials in x, ``RatFunc2`` of
bivariate polynomials in n and x.  Both are kept in a canonical form at all
times:

* numerator and denominator coprime (divided by their gcd),
* all coefficients ints (rational denominators cleared jointly),
* joint integer content stripped,
* the denominator's head term positive, where the head term is the first one
  in canonical term order (degree in n descending, then degree in x
  ascending).

Canonical form makes equality a structural comparison: two quotients are equal
iff their reduced forms match field by field.  Both classes share one quotient
core, ``_Quotient``, which holds construction, the cancel step (a gcd and
exact division, both on primitive integer parts; see ``polys``), the
scale-and-sign step and every operator; each class supplies its ring, its
gcd and its sign anchor.  Operations that keep a coprime pair coprime
(negation, powers, scaling by a constant) skip the gcd.  Scalars follow the
rule of ``polys``: int or Fraction as computed, a Fraction only from a real
division; the canonical fields always hold ints, whatever the inputs held.

Both classes also share one Maclaurin recurrence, ``series``, which reads
the int coefficients of the canonical fields directly and runs on
numerators over powers of den(0) in the coefficient ring, Z or Z[n]
(RatFunc divides out their common integer content each step); each
coefficient is reduced once over its known denominator factors by the
class's ``_x_free``, which for RatFunc2 divides with ``int_div_exact``.

The module carries the text/LaTeX renderers and the JSON wire format used by
the CLI ("p/q" strings, never floats).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .polys import Poly, Poly2, int_div_exact, poly2_div_exact, poly2_gcd, poly_gcd
from .scalars import parse_rational


class _Quotient:
    """Canonical quotient num/den over a polynomial ring, the core of RatFunc
    and RatFunc2.

    A subclass supplies ``_ring`` (its polynomial class), ``_gcd`` (a gcd in
    that ring), ``_anchor`` (the coefficient of the denominator whose sign is
    fixed positive) and ``_x_free`` (a ring element over {factor: power} as
    the reduced x-free value ``series`` returns); ``_content``, a gcd over its
    coefficient ring, is optional.
    """

    __slots__ = ("num", "den")
    _content = None

    def __init__(self, num, den=1):
        self._settle(num, den, cancel=True)

    @classmethod
    def from_coprime(cls, num, den):
        """Build from a numerator and denominator known to be coprime.

        Skips the gcd step (the expensive part for large operands) and applies
        only the scale and sign normalization.  The caller carries the proof
        obligation; feeding a reducible pair breaks canonical equality.
        """
        f = object.__new__(cls)
        f._settle(num, den, cancel=False)
        return f

    @classmethod
    def from_fraction(cls, q: int | Fraction):
        return cls.from_coprime(q, 1)

    def _coerce(self, v):
        """`v` in the ring: a polynomial of the ring's own class or a scalar
        (a Poly is no Poly2: its variable would be ambiguous)."""
        if isinstance(v, self._ring):
            return v
        if isinstance(v, (int, Fraction)):
            return self._ring.const(v)
        raise TypeError(f"expected {self._ring.__name__} or a scalar, got {type(v).__name__}")

    def _settle(self, num, den, cancel: bool) -> None:
        """Set the canonical fields of num/den, dividing by the gcd first
        when `cancel` is set: each field divided once by k, the gcd of the
        two contents (a Fraction when a content is one), so the fields are
        jointly primitive with int coefficients.  A field of ints is kept as
        it is when k is 1."""
        num = self._coerce(num)
        den = self._coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = num, self._ring.const(1)
            return
        if cancel:
            num, den = self._cancel(num, den)
        cn, cd = num.content(), den.content()
        k = Fraction(gcd(cn.numerator, cd.numerator), lcm(cn.denominator, cd.denominator))
        num, den = num._over(k), den._over(k)
        if self._anchor(den) < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def _cancel(self, num, den):
        """The pair divided by its gcd, exactly, on primitive integer parts."""
        g = self._gcd(num, den)
        if g.is_constant():
            return num, den
        return poly2_div_exact(num, g), poly2_div_exact(den, g)

    def _lift(self, other):
        """`other` as a quotient of this class, or None if it is not one."""
        if isinstance(other, (int, Fraction)):
            return self.from_fraction(other)
        return other if isinstance(other, type(self)) else None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num!r}, {self.den!r})"

    def __neg__(self):
        return self.from_coprime(-self.num, self.den)

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.from_coprime(self.num * other, self.den)
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return type(self)(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self.from_fraction(other) / self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a rational function")
        return self.from_coprime(self.num**k, self.den**k)


def _series_numerators(num: dict, den: dict, kmax: int, content=None) -> list:
    """Coefficients 0..kmax of num/den, maps {power of x: ring element} with
    d0 = den[0] nonzero, as (numerator, denominator as {factor: power}).  The
    window of the last deg(den) numerators shares one scale, multiplied by d0
    per step, so coefficient k is over d0^(k+1); a `content` (ring gcd) also
    divides window and scale by their common part, keeping numerators small.
    The scale starts from the int 1, so over the int rows of canonical
    fields every numerator and factor has int coefficients.
    """
    d0 = den.get(0)
    if not d0:
        raise ZeroDivisionError("denominator vanishes at x = 0; no Maclaurin expansion")
    tail = sorted((j, dj) for j, dj in den.items() if j)
    # zero is the ring's zero, so a term missing from num is still a ring element.
    scale, window, out, zero = 1, [], [], d0 * 0
    for k in range(kmax + 1):
        acc = num.get(k, zero) * scale - sum(dj * window[j - 1] for j, dj in tail if j <= k)
        scale, window = scale * d0, [acc] + [w * d0 for w in window[: max(den) - 1]]
        if content is not None:
            g = content(scale, *window)
            scale, window = scale // g, [w // g for w in window]
        out.append((window[0], {d0: k + 1} if content is None else {scale: 1}))
    return out


def _series(self, kmax: int) -> list:
    """First kmax+1 Maclaurin coefficients in x, exact: Fractions for RatFunc,
    reduced rational functions of n alone for RatFunc2.  Needs d0 = den(0)
    nonzero; each coefficient is reduced once, by the class's ``_x_free``.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    terms = _series_numerators(self.num._c, self.den._c, kmax, self._content)
    return [self._x_free(c, den) for c, den in terms]


class RatFunc(_Quotient):
    """Quotient of univariate polynomials in x, always in canonical form."""

    __slots__ = ()
    _ring = Poly

    @staticmethod
    def _gcd(a: Poly, b: Poly) -> Poly:
        # Looked up at call time, so a wrapper on ratfuncs.poly_gcd sees it.
        return poly_gcd(a, b)

    @staticmethod
    def _anchor(den: Poly) -> int:
        # The head term of a polynomial in x is its lowest power.
        return den.coeff(den.min_exponent())

    _content = staticmethod(gcd)

    @staticmethod
    def _x_free(num: int, den: dict[int, int]) -> Fraction:
        return Fraction(num, prod(f**m for f, m in den.items()))

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.var())

    def eval(self, x0: Fraction) -> Fraction:
        """Exact value at x0; raises ZeroDivisionError at a pole."""
        x0 = Fraction(x0)
        d = self.den.eval(x0)
        if d == 0:
            raise ZeroDivisionError(f"pole at x = {x0}")
        return self.num.eval(x0) / d

    def derivative(self) -> "RatFunc":
        """Quotient-rule derivative, reduced."""
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    series = _series


class RatFunc2(_Quotient):
    """Quotient of polynomials in Q[n, x], always in canonical form."""

    __slots__ = ()
    _ring = Poly2

    @staticmethod
    def _gcd(a: Poly2, b: Poly2) -> Poly2:
        return poly2_gcd(a, b)

    @staticmethod
    def _anchor(den: Poly2) -> int:
        return den.head_coeff()

    @staticmethod
    def _x_free(num: Poly, den: dict[Poly, int]) -> "RatFunc2":
        """num / prod(f^m) for Polys in n, reduced by one univariate gcd per
        copy of a factor (once a copy is coprime, so are the rest), which is
        divided out of the primitive integer parts."""
        scale, num = num.primitive()
        out = Poly._adopt({0: 1})
        for f, m in den.items():
            c, f = f.primitive()
            scale /= c**m
            while m:
                g = poly_gcd(num, f)
                if g.degree() < 1:
                    break
                g = g.primitive()[1]
                num, out = int_div_exact(num, g), out * int_div_exact(f, g)
                m -= 1
            out = out * f**m
        return RatFunc2.from_coprime(
            Poly2.from_poly_in_n(num) * scale.numerator, Poly2.from_poly_in_n(out) * scale.denominator
        )

    @classmethod
    def n(cls) -> "RatFunc2":
        return cls(Poly2.var_n())

    @classmethod
    def x(cls) -> "RatFunc2":
        return cls(Poly2.var_x())

    def subs_n(self, n0: Fraction) -> RatFunc:
        """Substitute a rational for n; the result is a reduced function of x."""
        n0 = Fraction(n0)
        den = self.den.subs_n(n0)
        if den.is_zero():
            raise ZeroDivisionError(f"denominator vanishes identically at n = {n0}")
        return RatFunc(self.num.subs_n(n0), den)

    def eval(self, n0: Fraction, x0: Fraction) -> Fraction:
        d = self.den.eval(n0, x0)
        if d == 0:
            raise ZeroDivisionError(f"pole at (n, x) = ({n0}, {x0})")
        return Fraction(self.num.eval(n0, x0), d)

    series = _series


# ---------------------------------------------------------------------------
# Rendering


def _term_sort_key(key: tuple[int, int]):
    dn, dx = key
    return (-dn, dx)


def _monomial_text(dn: int, dx: int, latex: bool) -> str:
    parts = []
    if dn:
        if dn == 1:
            parts.append("n")
        else:
            parts.append(f"n^{{{dn}}}" if latex else f"n^{dn}")
    if dx:
        if dx == 1:
            parts.append("x")
        else:
            parts.append(f"x^{{{dx}}}" if latex else f"x^{dx}")
    return "".join(parts)


def _coeff_text(v: Fraction, latex: bool, lone: bool) -> str:
    # `lone` means the monomial part is empty, so the coefficient must show.
    a = abs(v)
    if a == 1 and not lone:
        return ""
    if a.denominator == 1:
        return str(a.numerator)
    if latex:
        return rf"\frac{{{a.numerator}}}{{{a.denominator}}}"
    return f"({a})"


def _poly_terms(p: Poly | Poly2) -> list[tuple[int, int, Fraction]]:
    if isinstance(p, Poly2):
        return [(dn, dx, v) for (dn, dx), v in p.items()]
    # Univariate polynomials in this package are polynomials in x.
    return [(0, e, v) for e, v in p.items()]


def polynomial_text(p: Poly | Poly2, latex: bool = False) -> str:
    """Render with terms in canonical order and explicit signs."""
    terms = _poly_terms(p)
    if not terms:
        return "0"
    terms.sort(key=lambda t: _term_sort_key((t[0], t[1])))
    chunks: list[str] = []
    for i, (dn, dx, v) in enumerate(terms):
        mono = _monomial_text(dn, dx, latex)
        body = _coeff_text(v, latex, lone=not mono) + mono
        if i == 0:
            chunks.append(("-" if v < 0 else "") + body)
        else:
            chunks.append((" - " if v < 0 else " + ") + body)
    return "".join(chunks)


def _needs_parens(p: Poly | Poly2) -> bool:
    return len(list(p.items())) > 1


def ratfunc_text(f: RatFunc | RatFunc2) -> str:
    """Plain-text rendering like "x/(2 - x)" or "n/(n - 1)"."""
    num_s = polynomial_text(f.num)
    if f.den == 1:
        return num_s
    if _needs_parens(f.num):
        num_s = f"({num_s})"
    den_s = polynomial_text(f.den)
    if _needs_parens(f.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def ratfunc_latex(f: RatFunc | RatFunc2, den_factors=None) -> str:
    """LaTeX rendering; `den_factors`, when given, must multiply to f.den
    up to a positive rational constant and are printed as a factored
    denominator (the caller is responsible for having verified that)."""
    num_s = polynomial_text(f.num, latex=True)
    if f.den == 1:
        return num_s
    if den_factors:
        den_s = "".join(
            rf"\left({polynomial_text(fac, latex=True)}\right)" for fac in den_factors
        )
    else:
        den_s = polynomial_text(f.den, latex=True)
    return rf"\frac{{{num_s}}}{{{den_s}}}"


# ---------------------------------------------------------------------------
# JSON wire format


def poly_to_json(p: Poly) -> list:
    return [[e, str(v)] for e, v in sorted(p.items())]


def poly_from_json(data) -> Poly:
    return Poly.from_pairs((int(e), parse_rational(v)) for e, v in data)


def poly2_to_json(p: Poly2) -> list:
    return [[[dn, dx], str(v)] for (dn, dx), v in sorted(p.items())]


def poly2_from_json(data) -> Poly2:
    out = {}
    for (dn, dx), v in ((tuple(k), v) for k, v in data):
        out[(int(dn), int(dx))] = out.get((int(dn), int(dx)), 0) + parse_rational(v)
    return Poly2(out)


def ratfunc_to_json(f: RatFunc | RatFunc2) -> dict:
    if isinstance(f, RatFunc2):
        return {"num": poly2_to_json(f.num), "den": poly2_to_json(f.den)}
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfunc_from_json(data) -> RatFunc:
    return RatFunc(poly_from_json(data["num"]), poly_from_json(data["den"]))


def ratfunc2_from_json(data) -> RatFunc2:
    return RatFunc2(poly2_from_json(data["num"]), poly2_from_json(data["den"]))
