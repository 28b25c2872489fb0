"""The paper's limit theorems end to end: reverse waterfilling over the
eigenvalues of the finite-rank operators converges to the closed forms.

At sigma2 = fs = 1 each finite-n value D(n) converges as O(1/n), so the
Richardson value 2 D(2n) - D(n) is compared with the closed form:

* d_bar: the mean of min{theta_n, lambda} over the walk's eigenvalues,
  theta_n waterfilled over them, against ``sections(rbar).sampled``;
* d_tilde: the same mean over the interpolator kernel's eigenvalues;
* d_ce: the continuous-time value of the compress-and-estimate run,
  ``mc._expectations`` of the exact moment oracle in units of sigma2/fs,
  against 1/6 + ``sections(rbar).ce``;
* d_opt: the grid-exact value of estimate, then compress, the dense
  witness of ``oracle.dense_dopt_expectation`` over n os**2, against
  1/6 + ``sections(rbar).d_tilde``.

Convergence slows as rbar falls: the relative error of the Richardson value
falls about as rbar**-2 below rbar = 1 (2.9e-5 at rbar 1e-3, 1.1e-8 at
0.048, 3.4e-10 at 0.226) and stays at rounding level above it.  Each
tolerance is 3 times that measured envelope.
"""

import numpy as np
import pytest

from oracle import dense_dopt_expectation
from wienerdr import drf, mc
from wienerdr.spectral import (ProcessParams, discrete_wiener_eigensystem,
                               interp_kernel_eigensystem)

UNIT = ProcessParams(sigma2=1.0, fs=1.0)
RBARS = np.geomspace(1e-3, 5.0, 12)
SECTIONS = drf.sections(RBARS)
N = 2 ** 17
#: the moment oracle takes FFTs of length 2n+1 and 4n+1; at n = 2**17 the
#: second is 3 * 174763, which numpy transforms by Bluestein in about 0.2 s,
#: while at this n, near 2**17, neither length has a prime factor above 19
N_CE = 150356


def tolerance(rbar: float, floor: float) -> float:
    """3 times the measured relative error envelope of the Richardson
    value: about rbar**-2 below rbar = 1, ``floor`` above it."""
    return 3.0 * (floor if rbar >= 1.0 else 2.9e-5 * (rbar / 1e-3) ** -2)


def richardson(value, n: int) -> float:
    return 2.0 * value(2 * n) - value(n)


def waterfilled_mean(eigenvalues, rbar: float) -> float:
    theta = mc.finite_waterfill_theta(eigenvalues, rbar)
    return float(np.minimum(theta, eigenvalues).mean())


@pytest.mark.parametrize("eigensystem,closed_form,floor", [
    pytest.param(discrete_wiener_eigensystem, SECTIONS.sampled.distortion,
                 7e-15, id="d_bar"),
    pytest.param(interp_kernel_eigensystem, SECTIONS.d_tilde, 5e-11,
                 id="d_tilde")])
def test_finite_rank_waterfilling_converges(eigensystem, closed_form, floor):
    lam = {n: eigensystem(UNIT, n).eigenvalues for n in (N, 2 * N)}
    for rbar, exact in zip(RBARS, closed_form):
        got = richardson(lambda n: waterfilled_mean(lam[n], rbar), N)
        assert abs(got / exact - 1.0) <= tolerance(rbar, floor), rbar


def test_ce_continuous_value_converges_to_d_ce():
    for rbar, ce in zip(RBARS[::3], SECTIONS.ce[::3]):
        def value(n):
            return mc._expectations(n, 1, mc._oracle(n, rbar)[2])[1] / n

        exact = 1.0 / 6.0 + ce
        got = richardson(value, N_CE)
        assert abs(got / exact - 1.0) <= tolerance(rbar, 7e-15), rbar


def test_estimate_then_compress_converges_to_d_opt():
    # at os = 32 the Richardson value of n = 128 and 256, 0.603556, is
    # 9.1e-5 below d_opt = 0.603610 (rbar 0.5), the fine grid's bias
    def value(n):
        return dense_dopt_expectation(n, 32, 0.5) / (n * 32 ** 2)

    exact = 1.0 / 6.0 + float(drf.sections(0.5).d_tilde)
    got = richardson(value, 128)
    assert abs(got / exact - 1.0) <= 3.0 * 9.1e-5
