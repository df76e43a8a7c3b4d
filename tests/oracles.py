"""Reference arithmetic shared by the tests, independent of the integer cores
of ``ballcell.polys`` and ``ballcell.pgf``.

``div_exact_over_q`` divides by long division over Q, with Fraction
coefficients throughout, so it checks ``int_div_exact`` and
``poly2_div_exact`` (which divide primitive integer parts) without running
through either of them.

``duration_law_over_q`` walks the ball-count chain with Fraction masses and
the Fraction rows of ``transition_row``, so it checks the integer walk of
``pgf._duration_law`` (numerators over n^(r·k)) without sharing its scaling.

``row_by_inclusion_exclusion`` sums the capture law's inclusion-exclusion
formula term by term, so it checks ``game._row_numerators``, which counts
through the table of no-lone-ball placements instead.

``cancel_by_trial_division`` takes every factor out of a PGF level, the
monomial n too, by repeated exact division, so it checks
``pgf._cancel_factors``, which takes the power of n off by an exponent
shift.  ``settle_by_primitive_parts`` settles a quotient from the primitive
parts of its fields scaled back by the reduced ratio of their contents, so
it checks ``_Quotient._settle``, which divides each field once by the gcd
of the contents.
"""

from fractions import Fraction
from math import comb, factorial

from ballcell.game import transition_row
from ballcell.polys import Poly, Poly2


def duration_law_over_q(r, n):
    """Pr[duration = k] for k = 0, 1, 2, ... of r balls on n cells, without
    end: the chain's absorbed mass after k rounds, differenced."""
    rows = [transition_row(n, i).probs for i in range(r + 1)]
    state = [Fraction(0)] * (r + 1)
    state[r] = Fraction(1)
    absorbed = Fraction(0)
    while True:
        yield state[0] - absorbed
        absorbed = state[0]
        nxt = [Fraction(0)] * (r + 1)
        for i in range(r + 1):
            w = state[i]
            if w:
                row = rows[i]
                for t in range(i + 1):
                    if row[t]:
                        nxt[i - t] += w * row[t]
        state = nxt


def row_by_inclusion_exclusion(n, r):
    """Numerators over n^r of P[t captured] for t = 0..r, each summed
    directly: sum_{j=t}^{min(n,r)} (-1)^(j-t) C(j,t) C(n,j) C(r,j) j! (n-j)^(r-j)."""
    top = min(n, r)
    terms = [comb(n, j) * comb(r, j) * factorial(j) * (n - j) ** (r - j) for j in range(top + 1)]
    row = []
    for t in range(r + 1):
        total = 0
        for j in range(t, top + 1):
            s = comb(j, t) * terms[j]
            total = total - s if (j - t) & 1 else total + s
        row.append(total)
    return row


def div_exact_over_q(p, d):
    """p/d for two Polys or two Poly2s with Fraction coefficients, by long
    division over Q (for Poly2, in x over Q[n], each step a univariate
    division over Q); ValueError when d does not divide p."""
    if isinstance(p, Poly):
        q, rem = divmod(p, d)
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        return q
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    pc = p.as_x_coeffs()
    dc = d.as_x_coeffs()
    ddx = max(dc)
    lead = dc[ddx]
    q: dict[int, Poly] = {}
    while pc:
        pdx = max(pc)
        if pdx < ddx:
            raise ValueError("inexact polynomial division")
        qc = div_exact_over_q(pc[pdx], lead)
        q[pdx - ddx] = qc
        for dx, cf in dc.items():
            e = pdx - ddx + dx
            s = pc.get(e, Poly.zero()) - qc * cf
            if s.is_zero():
                pc.pop(e, None)
            else:
                pc[e] = s
    return Poly2({(dn, dx): v for dx, c in q.items() for dn, v in c.items()})


def cancel_by_trial_division(num, den, div_exact):
    """num over {factor: power} with every factor divided out as often as
    `div_exact` divides it exactly; the zero numerator over {}."""
    if num.is_zero():
        return num, {}
    out = {}
    for f, mult in den.items():
        while mult > 0:
            try:
                num = div_exact(num, f)
            except ValueError:
                break
            mult -= 1
        if mult:
            out[f] = mult
    return num, out


def settle_by_primitive_parts(cls, num, den, cancel=True):
    """num/den as a canonical quotient of `cls` (RatFunc or RatFunc2),
    divided by the gcd first when `cancel` is set: the primitive parts of
    the pair, num scaled by a and den by b for a/b the reduced ratio of
    their contents, and the signs turned so the anchor is positive."""
    q = object.__new__(cls)
    num, den = q._coerce(num), q._coerce(den)
    if num.is_zero():
        q.num, q.den = num, cls._ring.const(1)
        return q
    if cancel:
        num, den = q._cancel(num, den)
    cn, num = num.primitive()
    cd, den = den.primitive()
    ratio = cn / cd
    num, den = num * ratio.numerator, den * ratio.denominator
    if q._anchor(den) < 0:
        num, den = -num, -den
    q.num, q.den = num, den
    return q
