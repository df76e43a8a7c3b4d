"""Reference arithmetic shared by the tests, independent of the integer cores
of ``ballcell.polys`` and ``ballcell.pgf``.

``long_division_over_q`` divides two univariate coefficient maps over Q,
with Fraction coefficients throughout, and ``div_exact_over_q`` builds exact
division of Polys and Poly2s on it, so they check ``int_div_exact`` and
``poly2_div_exact`` (which divide primitive integer parts) without running
through ``polys._long_division``, the sweep both of those share.

``quotient_add``, ``quotient_mul`` and ``quotient_div`` are the field
operations on canonical quotients, which carry none of their own: each
multiplies the fields crosswise and hands the pair to the gcd-reducing
constructor, a scalar taken as a quotient by ``from_fraction``.
``quotient_value`` is a quotient's value at a point, its fields evaluated
and divided.  They build the step-by-step references that the PGF table,
the moment chain and the series recurrence are checked against.

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

``harmonic_sum_from_scratch`` runs the harmonic partial sum's Horner pass
from j = 1 on every call, so it checks ``approx._harmonic_sum``, which
resumes from the state it held for the same n and power.

``SplitMix64`` is the simulator's generator as its authors publish it
(Steele, Lea and Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014), one word at a time, its constants typed here rather than read
from ``ballcell.montecarlo``.  ``below`` draws a cell by rejection, word after
word, and ``trial_seed`` is word i + 1 of a batch stream in closed form.
They are the spec of the packed draw: the lane-wise mix, the lane-wise cells
with their rejection flag, the packed refill of rejected words, and the
seeds of a batch's trials.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from ballcell.game import transition_row
from ballcell.law import MIN_COVERAGE, GofBin, GofReport
from ballcell.polys import Poly, Poly2

MASK64 = (1 << 64) - 1
# SplitMix64's stream increment (the odd integer nearest 2^64 over the golden
# ratio) and its output-mix multipliers.
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def _mix64(z):
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit generator: the state walks by GAMMA and each output is a
    bijective xor-shift-multiply mix of the new state.

    Reference sequence: seed 0 starts e220a8397b1dcdaf, 6e789e6aa1b965f4,
    06c45d188009454f; seed 42 starts bdd732262feb6e95, 28efe333b266f103,
    47526757130f9f52.
    """

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + GAMMA) & MASK64
        return _mix64(self._state)

    def below(self, n):
        """Uniform integer in [0, n) by rejection, so no modulo bias; past
        n = 2^64 no word would pass."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"modulus must lie in [1, 2^64], got {n}")
        # The largest multiple of n that fits in 64 bits.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def trial_seed(seed, index):
    """The stream seed of trial `index` of a batch at `seed`: the
    (index + 1)-th output of ``SplitMix64(seed)``, in closed form."""
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index}")
    return _mix64((seed + (index + 1) * GAMMA) & MASK64)


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


def long_division_over_q(p: dict, d: dict) -> tuple[dict, dict]:
    """Quotient and remainder of two maps {power: coefficient} over Q, with
    Fraction coefficients: p = q·d + r, deg r < deg d."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    top = max(d)
    q, rest = {}, {e: Fraction(v) for e, v in p.items() if v}
    while rest and max(rest) >= top:
        e = max(rest)
        c = q[e - top] = rest[e] / d[top]
        for j, v in d.items():
            s = rest.get(e - top + j, 0) - c * v
            if s:
                rest[e - top + j] = s
            else:
                rest.pop(e - top + j, None)
    return q, rest


def div_exact_over_q(p, d):
    """p/d for two Polys or two Poly2s with Fraction coefficients, by long
    division over Q (for Poly2, in x over Q[n], each step a univariate
    division over Q); ValueError when d does not divide p."""
    if isinstance(p, Poly):
        q, rem = long_division_over_q(dict(p.items()), dict(d.items()))
        if rem:
            raise ValueError("inexact polynomial division")
        return Poly(q)
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


def harmonic_sum_from_scratch(n, r, p):
    """(N, L) with sum_{j=1}^r (1/j^p)(n/(n-1))^(p(j-1)) = N / L^p, where
    L = lcm(1..r) (n-1)^(r-1); one Horner pass over integers."""
    lcm_r = lcm(*range(1, r + 1))
    x, y = n**p, (n - 1) ** p
    total = 0
    power = 1
    for j in range(1, r + 1):
        total = total * y + (lcm_r // j) ** p * power
        power *= x
    return total, lcm_r * (n - 1) ** max(r - 1, 0)


def _quotients(f, g):
    """f and g as quotients of one class, a scalar lifted by from_fraction."""
    cls = type(g) if isinstance(f, (int, Fraction)) else type(f)
    return [v if isinstance(v, cls) else cls.from_fraction(v) for v in (f, g)]


def quotient_add(f, g):
    f, g = _quotients(f, g)
    return type(f)(f.num * g.den + g.num * f.den, f.den * g.den)


def quotient_mul(f, g):
    f, g = _quotients(f, g)
    return type(f)(f.num * g.num, f.den * g.den)


def quotient_div(f, g):
    f, g = _quotients(f, g)
    return type(f)(f.num * g.den, f.den * g.num)


def quotient_value(f, *point):
    """f at x (RatFunc) or at (n, x) (RatFunc2); ZeroDivisionError at a pole."""
    return Fraction(f.num.eval(*point)) / f.den.eval(*point)
