"""The standard-library chi-square quantile behind the statistical gate.

scipy is the oracle here and only here; the closed forms and the refusals
need nothing beyond the standard library.
"""

from math import erfc, exp, pi, sqrt

import pytest

from ballcell.scalars import _chi_square_sf, chi_square_quantile

DOFS = [*range(1, 401), 1000, 2000, 5000, 20000]
LEVELS = (0.5, 0.95, 0.999, 0.999999)
POINTS = (0.01, 0.5, 1.0, 3.7, 12.0, 40.0, 150.0)


@pytest.mark.parametrize("p", LEVELS)
def test_quantile_matches_scipy(p):
    chi2 = pytest.importorskip("scipy.stats").chi2
    for dof in DOFS:
        want = chi2.ppf(p, dof)
        assert chi_square_quantile(p, dof) == pytest.approx(want, rel=1e-12, abs=0), dof


@pytest.mark.parametrize("x", POINTS)
def test_survival_closed_forms(x):
    h = x / 2
    assert _chi_square_sf(x, 1) == pytest.approx(erfc(sqrt(h)), rel=1e-14, abs=1e-300)
    assert _chi_square_sf(x, 2) == pytest.approx(exp(-h), rel=1e-14, abs=1e-300)
    assert _chi_square_sf(x, 3) == pytest.approx(
        erfc(sqrt(h)) + 2 * sqrt(h / pi) * exp(-h), rel=1e-14, abs=1e-300
    )
    assert _chi_square_sf(x, 4) == pytest.approx(exp(-h) * (1 + h), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("p, dof", [(0.5, 0), (0.5, -3), (0.0, 5), (1.0, 5), (1.5, 5)])
def test_quantile_refuses_out_of_range(p, dof):
    with pytest.raises(ValueError, match="dof >= 1 and 0 < p < 1"):
        chi_square_quantile(p, dof)
