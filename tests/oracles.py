"""Reference arithmetic shared by the tests, independent of the integer core
of ``ballcell.polys``.

``div_exact_over_q`` divides by long division over Q, with Fraction
coefficients throughout, so it checks ``int_div_exact`` and
``poly2_div_exact`` (which divide primitive integer parts) without running
through either of them.
"""

from ballcell.polys import Poly, Poly2


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
