"""Reference arithmetic shared by the tests, independent of the integer cores
of ``ballcell.polys`` and ``ballcell.pgf``.

``div_exact_over_q`` divides by long division over Q, with Fraction
coefficients throughout, so it checks ``int_div_exact`` and
``poly2_div_exact`` (which divide primitive integer parts) without running
through either of them.

``duration_law_over_q`` walks the ball-count chain with Fraction masses and
the Fraction rows of ``transition_row``, and differences the absorbed mass
itself, so it checks the integer CDF walk of ``law._duration_law``
(numerators over n^(r·k)) without sharing its scaling.

``gof_over_q`` is ``law.gof_compare`` as it was when every mass,
the coverage and the TV distance were sums of Fractions, so it checks the
fit taken on integer masses over one denominator.

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
from ballcell.montecarlo import MIN_COVERAGE, GofBin, GofReport
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


def gof_over_q(batch, law):
    """The goodness-of-fit report of `batch` against `law`, every mass a
    Fraction: TV on {0..kmax, tail}, chi-square over left-to-right bins of
    expected count >= 5, the last bin open and holding the tail."""
    coverage = sum(law.probs, Fraction(0))
    if coverage < MIN_COVERAGE:
        raise ValueError(
            f"law covers {float(coverage):.12f} of the mass, below the required {float(MIN_COVERAGE):.9f}"
        )
    trials = batch.trials
    kmax = len(law.probs) - 1
    hist = batch.histogram

    tv = Fraction(0)
    for k, p in enumerate(law.probs):
        tv += abs(Fraction(hist.get(k, 0), trials) - p)
    emp_tail = Fraction(sum(c for k, c in hist.items() if k > kmax), trials)
    tv = (tv + abs(emp_tail - (1 - coverage))) / 2

    spans = []
    lo = 0
    acc = Fraction(0)
    for k, p in enumerate(law.probs):
        acc += p
        if acc * trials >= 5:
            spans.append((lo, k, acc))
            lo = k + 1
            acc = Fraction(0)
    leftover = acc + (1 - coverage)
    if spans and leftover * trials < 5:
        prev_lo, _, prev_mass = spans.pop()
        spans.append((prev_lo, None, prev_mass + leftover))
    else:
        spans.append((lo, None, leftover))

    bins = []
    for span_lo, span_hi, mass in spans:
        if span_hi is None:
            observed = sum(c for k, c in hist.items() if k >= span_lo)
        else:
            observed = sum(hist.get(k, 0) for k in range(span_lo, span_hi + 1))
        bins.append(GofBin(span_lo, span_hi, observed, mass * trials))
    chi = sum(((Fraction(b.observed) - b.expected) ** 2 / b.expected for b in bins), Fraction(0))
    return GofReport(tv, chi, len(bins) - 1, tuple(bins))


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
