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


# chi_square_quantile(p, dof).hex() for dof 1..10, 100, 400 and 20000,
# recorded from the bisection that evaluated the sum at every midpoint.  The
# first ten at p = 0.999 are the statistical gate's thresholds.
PINNED_DOFS = [*range(1, 11), 100, 400, 20000]
PINNED = {
    0.5: ["0x1.d1dada8c3b2b6p-2", "0x1.62e42fefa39eep+0", "0x1.2ed83b744a844p+1", "0x1.ada825f9762b2p+1",
          "0x1.167e52e2a67a0p+2", "0x1.56479bbd7cb26p+2", "0x1.9621c547d6c1cp+2", "0x1.d606162c9eb40p+2",
          "0x1.0af87c44273bep+3", "0x1.2af02bcf8d190p+3", "0x1.8d5625f974d52p+6", "0x1.8f55624d67452p+8",
          "0x1.387d55565e5fcp+14"],
    0.95: ["0x1.ebb4ec31e7ef6p+1", "0x1.7f7427b73e390p+2", "0x1.f4248080e68ecp+2", "0x1.2f9b79ecc91bcp+3",
           "0x1.624184610313cp+3", "0x1.92ee485f138eap+3", "0x1.c22603ba44f3cp+3", "0x1.f03be896f8d48p+3",
           "0x1.0eb421dc599eap+4", "0x1.24e9a0bbd71bap+4", "0x1.f15e52f9e6e26p+6", "0x1.bfa1e9696917ep+8",
           "0x1.3da86a50d2254p+14"],
    0.999: ["0x1.5a7b6c0cc8b76p+3", "0x1.ba18a998fffa0p+3", "0x1.044280e2bdaaep+4", "0x1.27781f89f9c46p+4",
            "0x1.483d769127450p+4", "0x1.6752ebe183fc8p+4", "0x1.8526724c912f6p+4", "0x1.a1fde05fe2e3ep+4",
            "0x1.be08de0833f3cp+4", "0x1.d969aba15e1dcp+4", "0x1.2ae60475d3378p+7", "0x1.ed21baf0d709ap+8",
            "0x1.423f0075b927cp+14"],
    0.999999: ["0x1.7ed99bac43b90p+4", "0x1.ba18a998fc064p+4", "0x1.eaa339720b012p+4", "0x1.0b03c584e7fb8p+5",
               "0x1.1f1b01b9054dep+5", "0x1.321112a999ab2p+5", "0x1.442cb5daa46eap+5", "0x1.559b78c2bc448p+5",
               "0x1.667cccfe8b370p+5", "0x1.76e7851aec7a8p+5", "0x1.6c40e8ee3ba20p+7", "0x1.128ec01e72ddep+9",
               "0x1.47947d43e2c94p+14"],
}


@pytest.mark.parametrize("p", LEVELS)
def test_quantile_is_the_bisection_float(p):
    assert [chi_square_quantile(p, dof).hex() for dof in PINNED_DOFS] == PINNED[p]


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
