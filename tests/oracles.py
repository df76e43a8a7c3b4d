"""Reference arithmetic shared by the tests, independent of the integer cores
of ``ballcell.polys`` and ``ballcell.pgf``.

``div_exact_over_q`` divides by long division over Q, with Fraction
coefficients throughout, so it checks ``int_div_exact`` and
``poly2_div_exact`` (which divide primitive integer parts) without running
through either of them.

``duration_law_over_q`` walks the ball-count chain with Fraction masses and
the Fraction rows of ``transition_row``, so it checks the integer walk of
``pgf._duration_law`` (numerators over n^(r·k)) without sharing its scaling.
"""

from fractions import Fraction

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
