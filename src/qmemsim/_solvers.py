"""numpy-only ports of the four scipy routines the package uses.

Each function does every floating-point operation in the order of the
scipy 1.17 routine it replaces, so results agree with scipy bit for bit
(``tests/test_solvers.py`` checks this against scipy itself):

* :func:`ndtri` - ``scipy.special.ndtri``, Cephes' inverse of the
  standard normal CDF (S. L. Moshier, ``ndtri.c``, 1989), three rational
  approximations; the Monte Carlo sampler's normals;
* :func:`i0e` - ``scipy.special.i0e``, Cephes' exponentially scaled
  modified Bessel function of order zero (S. L. Moshier), as a Chebyshev
  series on two ranges;
* :func:`minimize_bounded` - ``scipy.optimize.minimize_scalar`` with
  ``method="bounded"`` (``scipy.optimize._optimize._minimize_scalar_bounded``):
  Brent's golden-section and parabolic search, R. P. Brent, *Algorithms
  for Minimization without Derivatives* (1973), ch. 5;
* :func:`brentq` - ``scipy.optimize.brentq`` (scipy's ``brentq.c``),
  Brent's bracketing root finder, ibid. ch. 4.

Keeping them here spares every subcommand the import of
``scipy.special`` and ``scipy.optimize``, which took longer than the
whole computation of ``qmemsim fidelity`` or ``lifetime`` and about as
long as ``qmemsim store`` at its default trial count.

:func:`minimize_bounded` is a port of scipy's own code, and :func:`ndtri`
and :func:`i0e` are ports of the Cephes Math Library (Copyright 1984,
1987, 1989 by Stephen L. Moshier) as scipy distributes it, under scipy's
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright
       notice, this list of conditions and the following disclaimer in
       the documentation and/or other materials provided with the
       distribution.
    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes i0.c: Chebyshev coefficients of exp(-x) I0(x) in (x/2 - 2) on
# [0, 8], and of exp(-x) sqrt(x) I0(x) in (32/x - 2) on (8, inf).
_I0_A = np.array([
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
])
_I0_B = np.array([
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
])


def _chbevl(x, coeffs):
    """Cephes ``chbevl``: Clenshaw sum of a Chebyshev series, elementwise.

    ``b0 = x * b1 - b2 + c`` in place, rotating three buffers.
    """
    b0, b1, b2 = np.full_like(x, coeffs[0]), np.zeros_like(x), np.empty_like(x)
    for c in coeffs[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def i0e(x):
    """``exp(-|x|) I0(x)`` elementwise in float64, as ``scipy.special.i0e``."""
    x = np.abs(np.asarray(x, dtype=float))
    low = x <= 8.0
    out = np.empty_like(x)
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _I0_A)
    high = ~low  # NaN lands here and stays NaN, as in Cephes
    if high.any():
        xh = x[high]
        out[high] = _chbevl(32.0 / xh - 2.0, _I0_B) / np.sqrt(xh)
    return out[()]


# Cephes ndtri.c: rational approximations P/Q with Q's leading 1 implied.
# x / sqrt(2 pi) = y + y^3 P0(y^2) / Q0(y^2), y = y0 - 1/2, on the centre
# exp(-2) < y0 < 1 - exp(-2); in the tails x = x0 - z P(z) / Q(z),
# z = 1 / x, with P1/Q1 for x < 8 and P2/Q2 beyond.
_NDTRI_P0 = (
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_NDTRI_Q0 = (
    1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
)
_NDTRI_P1 = (
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
)
_NDTRI_P2 = (
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x, coeffs):
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coeffs):
    """Cephes ``p1evl``: ``polevl`` with a leading coefficient of 1."""
    ans = x + coeffs[0]
    for c in coeffs[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x):
    """The C library's ``log``, which scipy's compiled Cephes calls.

    ``np.log`` rounds differently on a fraction of a percent of inputs
    (its SIMD loops are not libm), so this maps ``math.log`` instead.
    """
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def ndtri(y0):
    """Inverse of the standard normal CDF elementwise, as ``scipy.special.ndtri``.

    0 and 1 give -inf and +inf; values outside [0, 1] and NaN give NaN.
    """
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2  # Cephes reflects these: y = 1 - y0, x = -x
    y = np.where(upper, 1.0 - y0, y0)
    out = np.where(y == 0.0, np.where(upper, np.inf, -np.inf), np.nan)

    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI

    tail = ~(y <= 0.0) & ~centre  # NaN runs through, as in Cephes
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(z)
    near = x < 8.0
    for part, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        zp = z[part]
        x1[part] = zp * _polevl(zp, p) / _p1evl(zp, q)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out[()]


_MAXFUN = 500  # minimize_scalar's default maxiter for method="bounded"


def minimize_bounded(f, lo, hi, xatol):
    """Minimum of ``f`` on ``[lo, hi]``; returns ``(x, f(x))``.

    scipy's ``_minimize_scalar_bounded`` line for line, with its default
    budget of 500 function evaluations and without its printing.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (
                p < q * (b - xf)
            ):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            break

    return xf, fx


_MAXITER = 100  # scipy.optimize.brentq's default maxiter


def brentq(f, a, b, xtol, rtol):
    """Root of ``f`` in ``[a, b]``, as ``scipy.optimize.brentq`` finds it.

    scipy's ``brentq.c`` step for step.  Raises ``ValueError`` if
    ``f(a)`` and ``f(b)`` have the same sign, ``FloatingPointError`` if
    ``f`` returns a value that is not finite and ``RuntimeError`` after
    100 iterations without convergence.
    """

    def value(x):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise FloatingPointError(f"the function value at x={x} is {fx}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):  # C's MIN
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {_MAXITER} iterations; last x = {xcur}")
