"""Geodesics on an ellipsoid of revolution, from scratch (Karney series).

The reference exposes ellipsoidal ("geodesic") measures next to the
planar ones: ``OGR_G_GeodesicLength`` (ogr/ogr_api.cpp:1666) and
``OGR_G_GeodesicArea`` (ogr/ogr_api.cpp:1750), both reached through
PROJ's ``geod_inverse`` / ``geod_polygonarea``
(ogr/ogrlinestring.cpp:3233 ``get_GeodesicLength``,
ogr/ogrcurvepolygon.cpp ``get_GeodesicArea``).  Everything here is
re-derived from the PUBLIC algorithm paper those APIs implement:

    C. F. F. Karney, "Algorithms for geodesics",
    J. Geodesy 87(1), 43-55 (2013)  [series to 6th order in the third
    flattening n / expansion parameter eps — the same order PROJ uses].

Design notes (Ray-Data-first):

* Both the **direct** and **inverse** problems are fully numpy-
  vectorized: the inverse runs a safeguarded Newton (monotone
  lambda12(alpha1) -> bisection bracket + Newton step) over WHOLE
  arrays with an active mask, so a ``map_batches`` stage pays a few
  dozen vector ops per batch instead of a Python loop per vertex pair.

* **Polygon area** uses the exact equal-area (authalic) latitude
  mapping: the area of a region on the ellipsoid equals c2 times the
  solid angle of its authalic image on the sphere (closed form, no
  series truncation).  Geodesic edges are densified with the direct
  solver (default 20 km) so their authalic images are within
  micrometres of great-circle chords; edges that ARE mapped great
  circles (meridians, the equator) are exact with no densification.
  The spherical excess is accumulated with the per-edge trapezoid
  formula  dE = 2*atan2(tan(dlon/2)*(t1+t2), 1+t1*t2),  t = tan(xi/2),
  which handles pole vertices and antimeridian crossings.

Accuracy: round-trip direct(inverse) closes to ~1e-9 m on WGS84; the
inverse agrees with an independent RK4 integration of the geodesic ODE
to <1e-8 rad (see tests/test_geodesic.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Geodesic", "WGS84", "geodesic_lengths_wkb",
           "geodesic_areas_wkb", "geodesic_measures_batch"]

_TINY = np.sqrt(np.finfo(float).tiny)
_TOL0 = np.finfo(float).eps
_TOL1 = 200 * _TOL0
_TOL2 = np.sqrt(_TOL0)
_XTHRESH = 1000 * _TOL2


def _sincosd(deg):
    """sin/cos of degrees with exact values at multiples of 90."""
    d = np.asarray(deg, dtype=np.float64)
    r = np.remainder(d, 360.0)
    s, c = np.sin(np.radians(r)), np.cos(np.radians(r))
    exact = r == np.round(r)
    for ang, (es, ec) in ((0.0, (0.0, 1.0)), (90.0, (1.0, 0.0)),
                          (180.0, (0.0, -1.0)), (270.0, (-1.0, 0.0))):
        m = exact & (r == ang)
        s = np.where(m, es, s)
        c = np.where(m, ec, c)
    return s, c


def _norm2(s, c):
    h = np.hypot(s, c)
    h = np.where(h == 0, 1.0, h)
    return s / h, c / h


def _sincos_series(sinx, cosx, c):
    """sum(c[l-1] * sin(2*l*x) for l in 1..m) via Clenshaw (the SinCosSeries
    of the paper, sine-only variant used for B1/B1'/B2/B3)."""
    ar = 2.0 * (cosx - sinx) * (cosx + sinx)  # 2*cos(2x)
    y0 = np.zeros(np.broadcast(sinx, cosx).shape)
    y1 = np.zeros_like(y0)
    for k in range(len(c) - 1, -1, -1):
        y0, y1 = ar * y0 - y1 + c[k], y0
    return 2.0 * sinx * cosx * y0


def _astroid(x, y):
    """Positive root k of k^4 + 2k^3 - (x^2+y^2-1)k^2 - 2y^2 k - y^2 = 0
    (closed-form resolvent; the nearly-antipodal starting guess of the
    paper, section 5).  Vectorized."""
    p, q = x * x, y * y
    r = (p + q - 1.0) / 6.0
    out = np.zeros(np.broadcast(x, y).shape)
    gen = ~((q == 0) & (r <= 0))
    S = p * q / 4.0
    r2, r3 = r * r, r * r * r
    disc = S * (S + 2.0 * r3)
    u = r.copy() if isinstance(r, np.ndarray) else np.full_like(out, r)
    pos = gen & (disc >= 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        T3 = np.where(pos, S + r3, 1.0)
        T3 = T3 + np.where(T3 < 0, -1.0, 1.0) * np.sqrt(np.where(pos, disc, 0))
        T = np.cbrt(T3)
        u = np.where(pos, r + T + np.where(T != 0, r2 / np.where(T == 0, 1, T),
                                           0.0), u)
        neg = gen & (disc < 0)
        ang = np.arctan2(np.sqrt(np.where(neg, -disc, 0)), -(S + r3))
        u = np.where(neg, r + 2.0 * r * np.cos(ang / 3.0), u)
        v = np.sqrt(u * u + q)
        uv = np.where(u < 0, q / (v - u), u + v)
        w = (uv - q) / (2.0 * v)
        k = uv / (np.sqrt(uv + w * w) + w)
    return np.where(gen, k, 0.0)


class Geodesic:
    """Solver for one ellipsoid (a, f).  All public methods take/return
    numpy arrays (degrees for angles, metres for distances)."""

    def __init__(self, a: float = 6378137.0, f: float = 1 / 298.257223563):
        self.a, self.f = float(a), float(f)
        self.f1 = 1.0 - self.f
        self.e2 = self.f * (2.0 - self.f)
        self.ep2 = self.e2 / (1.0 - self.e2)
        self.n = self.f / (2.0 - self.f)
        self.b = self.a * self.f1
        if self.e2 > 0:
            e = np.sqrt(self.e2)
            # authalic radius^2 = (a^2 + b^2 * atanh(e)/e) / 2
            self.c2 = (self.a**2 + self.b**2 * np.arctanh(e) / e) / 2.0
        else:
            self.c2 = self.a**2
        n = self.n
        # A3 as a polynomial in eps, coefficients polynomial in n
        # (paper eq. 24; order 6).
        self._a3 = np.array([
            1.0,
            (n - 1.0) / 2.0,
            (3.0 * n * n - n - 2.0) / 8.0,
            (-n * n - 3.0 * n - 1.0) / 16.0,
            (-2.0 * n - 3.0) / 64.0,
            -3.0 / 128.0,
        ])
        # C3[l] coefficients: list over l=1..5 of polynomials in eps
        # whose coefficients are polynomials in n (paper eq. 25).
        self._c3 = [
            # l=1: eps^1..eps^5
            np.array([(1.0 - n) / 4.0, (1.0 - n * n) / 8.0,
                      ((-n + 3.0) * n + 3.0) / 64.0,
                      (2.0 * n + 5.0) / 128.0, 3.0 / 128.0]),
            np.array([0.0, ((n - 3.0) * n + 2.0) / 32.0,
                      ((-3.0 * n - 2.0) * n + 3.0) / 64.0,
                      (n + 3.0) / 128.0, 5.0 / 256.0]),
            np.array([0.0, 0.0, ((5.0 * n - 9.0) * n + 5.0) / 192.0,
                      (-10.0 * n + 9.0) / 384.0, 7.0 / 512.0]),
            np.array([0.0, 0.0, 0.0, (7.0 - 14.0 * n) / 512.0, 7.0 / 512.0]),
            np.array([0.0, 0.0, 0.0, 0.0, 21.0 / 2560.0]),
        ]
        self._etol2 = 0.1 * _TOL2 / np.sqrt(
            max(0.001, abs(self.f)) * min(1.0, 1 - self.f / 2) / 2)

    # -- series helpers (paper eqs. 15-21), vectorized over eps arrays --

    @staticmethod
    def _A1m1(eps):
        x = eps * eps
        t = x * (64.0 + x * (4.0 + x)) / 256.0
        return (t + eps) / (1.0 - eps)

    @staticmethod
    def _C1(eps):
        x = eps * eps
        return [eps * (x * (6.0 - x) - 16.0) / 32.0,
                eps**2 * (x * (64.0 - 9.0 * x) - 128.0) / 2048.0,
                eps**3 * (9.0 * x - 16.0) / 768.0,
                eps**4 * (3.0 * x - 5.0) / 512.0,
                eps**5 * (-7.0) / 1280.0,
                eps**6 * (-7.0) / 2048.0]

    @staticmethod
    def _C1p(eps):
        x = eps * eps
        return [eps * (x * (205.0 * x - 432.0) + 768.0) / 1536.0,
                eps**2 * (x * (4005.0 * x - 4736.0) + 3840.0) / 12288.0,
                eps**3 * (116.0 - 225.0 * x) / 384.0,
                eps**4 * (2695.0 - 7173.0 * x) / 7680.0,
                eps**5 * 3467.0 / 7680.0,
                eps**6 * 38081.0 / 61440.0]

    @staticmethod
    def _A2m1(eps):
        x = eps * eps
        t = -x * (x * (11.0 * x + 28.0) + 192.0) / 256.0
        return (t - eps) / (1.0 + eps)

    @staticmethod
    def _C2(eps):
        x = eps * eps
        return [eps * (x * (x + 2.0) + 16.0) / 32.0,
                eps**2 * (x * (35.0 * x + 64.0) + 384.0) / 2048.0,
                eps**3 * (15.0 * x + 80.0) / 768.0,
                eps**4 * (7.0 * x + 35.0) / 512.0,
                eps**5 * 63.0 / 1280.0,
                eps**6 * 77.0 / 2048.0]

    def _A3(self, eps):
        # Horner in eps, highest first
        out = np.full(np.shape(eps) or (), self._a3[-1])
        for c in self._a3[-2::-1]:
            out = out * eps + c
        return out

    def _C3(self, eps):
        # each stored row holds the absolute coefficients of eps^1..eps^5
        # (leading zeros included), so C3[l](eps) = eps * Horner(row).
        out = []
        for cl in self._c3:
            acc = np.zeros(np.shape(eps) or ())
            for c in cl[::-1]:
                acc = acc * eps + c
            out.append(acc * eps)
        return out

    def _lengths(self, eps, sig12, ssig1, csig1, dn1, ssig2, csig2, dn2):
        """(s12/b, m12/b) between two points on one geodesic (paper
        eqs. 38-40)."""
        C1 = self._C1(eps)
        A1 = 1.0 + self._A1m1(eps)
        B1 = (_sincos_series(ssig2, csig2, C1)
              - _sincos_series(ssig1, csig1, C1))
        s12b = A1 * (sig12 + B1)
        C2 = self._C2(eps)
        A2 = 1.0 + self._A2m1(eps)
        B2 = (_sincos_series(ssig2, csig2, C2)
              - _sincos_series(ssig1, csig1, C2))
        J12 = (A1 - A2) * sig12 + (A1 * B1 - A2 * B2)
        m12b = (dn2 * (csig1 * ssig2) - dn1 * (ssig1 * csig2)
                - csig1 * csig2 * J12)
        return s12b, m12b

    # ------------------------------------------------------------------
    # inverse problem
    # ------------------------------------------------------------------

    def inverse(self, lat1, lon1, lat2, lon2):
        """Vectorized inverse problem: (s12 m, azi1 deg, azi2 deg)."""
        lat1 = np.atleast_1d(np.asarray(lat1, np.float64)).copy()
        lat2 = np.atleast_1d(np.asarray(lat2, np.float64)).copy()
        lon1 = np.atleast_1d(np.asarray(lon1, np.float64))
        lon2 = np.atleast_1d(np.asarray(lon2, np.float64))
        lat1, lat2, lon1, lon2 = np.broadcast_arrays(lat1, lat2, lon1, lon2)
        lat1, lat2 = lat1.copy(), lat2.copy()
        nrows = lat1.shape[0] if lat1.ndim else 1

        lon12 = np.remainder(lon2 - lon1, 360.0)
        lon12 = np.where(lon12 > 180.0, lon12 - 360.0, lon12)
        lonsign = np.where(lon12 >= 0, 1.0, -1.0)
        lon12 = lon12 * lonsign                      # [0, 180]
        # canonical: |lat1| >= |lat2|, lat1 <= 0
        swapp = np.where(np.abs(lat1) < np.abs(lat2), -1.0, 1.0)
        sw = swapp < 0
        lat1[sw], lat2[sw] = lat2[sw], lat1[sw]
        lonsign = lonsign * swapp   # reversing endpoints reverses east/west
        latsign = np.where(lat1 > 0, -1.0, 1.0)
        lat1 = lat1 * latsign
        lat2 = lat2 * latsign

        sbet1, cbet1 = _sincosd(lat1)
        sbet1 = sbet1 * self.f1
        sbet1, cbet1 = _norm2(sbet1, cbet1)
        cbet1 = np.maximum(cbet1, _TINY)
        sbet2, cbet2 = _sincosd(lat2)
        sbet2 = sbet2 * self.f1
        sbet2, cbet2 = _norm2(sbet2, cbet2)
        cbet2 = np.maximum(cbet2, _TINY)
        # snap nearly-equal |beta| so the calp2 formula stays stable
        close = cbet1 < -sbet1
        eq = close & (cbet2 == cbet1)
        sbet2 = np.where(eq, np.where(sbet2 < 0, sbet1, -sbet1), sbet2)
        eq2 = (~close) & (np.abs(sbet2) == -sbet1)
        cbet2 = np.where(eq2, cbet1, cbet2)

        dn1 = np.sqrt(1.0 + self.ep2 * sbet1**2)
        dn2 = np.sqrt(1.0 + self.ep2 * sbet2**2)
        lam12 = np.radians(lon12)
        slam12, clam12 = _sincosd(lon12)

        s12 = np.zeros(nrows)
        salp1 = np.zeros(nrows)
        calp1 = np.zeros(nrows)
        salp2 = np.zeros(nrows)
        calp2 = np.zeros(nrows)
        done = np.zeros(nrows, bool)

        # --- meridional case (lon12 == 0 or 180, or start at the pole) ---
        merid = (lat1 == -90.0) | (slam12 == 0)
        if merid.any():
            m = merid
            ca1, sa1 = clam12[m], slam12[m]       # alpha1 = lon12
            ss1, cs1 = sbet1[m], ca1 * cbet1[m]
            ss2, cs2 = sbet2[m], cbet2[m]
            sig12 = np.arctan2(np.maximum(0.0, cs1 * ss2 - ss1 * cs2),
                               cs1 * cs2 + ss1 * ss2)
            k2 = np.full(ss1.shape, self.ep2)     # alpha0 == 0 on a meridian
            eps = k2 / (2.0 * (1.0 + np.sqrt(1.0 + k2)) + k2)
            s12b, m12b = self._lengths(eps, sig12, ss1, cs1, dn1[m],
                                       ss2, cs2, dn2[m])
            ok = (sig12 < 1.0) | (m12b >= 0.0)
            idx = np.flatnonzero(m)[ok]
            s12[idx] = (self.b * s12b)[ok]
            salp1[idx], calp1[idx] = sa1[ok], ca1[ok]
            # at the canonical target we're heading due north
            salp2[idx], calp2[idx] = 0.0, 1.0
            done[idx] = True

        # --- equatorial case ---
        equa = (~done) & (sbet1 == 0) & (sbet2 == 0) \
            & (lam12 <= self.f1 * np.pi)
        if equa.any():
            s12[equa] = self.a * lam12[equa]
            salp1[equa] = salp2[equa] = 1.0
            calp1[equa] = calp2[equa] = 0.0
            done[equa] = True

        # --- general case: start guess + safeguarded Newton ---
        gen = ~done
        if gen.any():
            g = np.flatnonzero(gen)
            sa1, ca1 = self._inverse_start(
                sbet1[g], cbet1[g], dn1[g], sbet2[g], cbet2[g], dn2[g],
                lam12[g], slam12[g], clam12[g])
            sa1, ca1, sa2, ca2, sig12, eps, ss1, cs1, ss2, cs2 = \
                self._newton(sbet1[g], cbet1[g], dn1[g], sbet2[g], cbet2[g],
                             dn2[g], lam12[g], sa1, ca1)
            s12b, _ = self._lengths(eps, sig12, ss1, cs1, dn1[g],
                                    ss2, cs2, dn2[g])
            s12[g] = self.b * s12b
            salp1[g], calp1[g] = sa1, ca1
            salp2[g], calp2[g] = sa2, ca2

        # undo canonicalization
        if sw.any():
            salp1[sw], salp2[sw] = salp2[sw], salp1[sw]
            calp1[sw], calp2[sw] = calp2[sw], calp1[sw]
        salp1 = salp1 * swapp * lonsign
        calp1 = calp1 * swapp * latsign
        salp2 = salp2 * swapp * lonsign
        calp2 = calp2 * swapp * latsign
        azi1 = np.degrees(np.arctan2(salp1, calp1))
        azi2 = np.degrees(np.arctan2(salp2, calp2))
        return s12, azi1, azi2

    def _inverse_start(self, sbet1, cbet1, dn1, sbet2, cbet2, dn2,
                       lam12, slam12, clam12):
        """Starting alpha1 (paper section 5), incl. the astroid solve for
        nearly-antipodal pairs."""
        sbet12 = sbet2 * cbet1 - cbet2 * sbet1
        cbet12 = cbet2 * cbet1 + sbet2 * sbet1
        sbet12a = sbet2 * cbet1 + cbet2 * sbet1
        shortline = (cbet12 >= 0) & (sbet12 < 0.5) & (cbet2 * lam12 < 0.5)
        sbetm2 = (sbet1 + sbet2) ** 2
        sbetm2 = sbetm2 / (sbetm2 + (cbet1 + cbet2) ** 2)
        dnm = np.sqrt(1.0 + self.ep2 * sbetm2)
        omg12 = np.where(shortline, lam12 / (self.f1 * dnm), lam12)
        somg12, comg12 = np.sin(omg12), np.cos(omg12)

        salp1 = cbet2 * somg12
        calp1 = np.where(
            comg12 >= 0,
            sbet12 + cbet2 * sbet1 * somg12**2 / (1.0 + comg12),
            sbet12a - cbet2 * sbet1 * somg12**2 / (1.0 - comg12))
        ssig12 = np.hypot(salp1, calp1)
        csig12 = sbet1 * sbet2 + cbet1 * cbet2 * comg12

        astro = ~((csig12 >= 0)
                  | (ssig12 >= 6.0 * abs(self.n) * np.pi * cbet1**2))
        if astro.any():
            k2 = sbet1[astro] ** 2 * self.ep2
            eps = k2 / (2.0 * (1.0 + np.sqrt(1.0 + k2)) + k2)
            lamscale = self.f * cbet1[astro] * self._A3(eps) * np.pi
            betscale = lamscale * cbet1[astro]
            x = (lam12[astro] - np.pi) / lamscale
            y = sbet12a[astro] / betscale
            strip = (y > -_TOL1) & (x > -1.0 - _XTHRESH)
            sa = np.minimum(1.0, -x)
            ca = -np.sqrt(np.maximum(0.0, 1.0 - sa * sa))
            k = _astroid(x, y)
            omg12a = lamscale * np.where(self.f >= 0, -x * k / (1.0 + k),
                                         -y * (1.0 + k) / k)
            so, co = np.sin(omg12a), -np.cos(omg12a)
            sa_k = cbet2[astro] * so
            ca_k = sbet12a[astro] - (cbet2[astro] * sbet1[astro] * so**2
                                     / (1.0 - co))
            salp1[astro] = np.where(strip, sa, sa_k)
            calp1[astro] = np.where(strip, ca, ca_k)

        bad = ~(salp1 > 0)
        salp1 = np.where(bad, 1.0, salp1)
        calp1 = np.where(bad, 0.0, calp1)
        return _norm2(salp1, calp1)

    def _lambda12(self, sbet1, cbet1, dn1, sbet2, cbet2, dn2, salp1, calp1,
                  want_deriv=True):
        """lambda12(alpha1) and its derivative (paper eqs. 44-46)."""
        salp1 = np.where(salp1 == 0, _TINY, salp1)
        salp0 = salp1 * cbet1
        calp0 = np.hypot(calp1, salp1 * sbet1)
        ssig1, csig1 = _norm2(sbet1, calp1 * cbet1)
        somg1, comg1 = salp0 * sbet1, calp1 * cbet1

        salp2 = np.where(cbet2 != cbet1, salp0 / cbet2, salp1)
        inner = np.where(cbet1 < -sbet1,
                         (cbet2 - cbet1) * (cbet1 + cbet2),
                         (sbet1 - sbet2) * (sbet1 + sbet2))
        calp2 = np.where(
            (cbet2 != cbet1) | (np.abs(sbet2) != -sbet1),
            np.sqrt(np.maximum(0.0, (calp1 * cbet1) ** 2 + inner)) / cbet2,
            np.abs(calp1))
        ssig2, csig2 = _norm2(sbet2, calp2 * cbet2)
        somg2, comg2 = salp0 * sbet2, calp2 * cbet2

        sig12 = np.arctan2(
            np.maximum(0.0, csig1 * ssig2 - ssig1 * csig2),
            csig1 * csig2 + ssig1 * ssig2)
        omg12 = np.arctan2(
            np.maximum(0.0, comg1 * somg2 - somg1 * comg2),
            comg1 * comg2 + somg1 * somg2)
        k2 = calp0**2 * self.ep2
        eps = k2 / (2.0 * (1.0 + np.sqrt(1.0 + k2)) + k2)
        C3 = self._C3(eps)
        B3 = (_sincos_series(ssig2, csig2, C3)
              - _sincos_series(ssig1, csig1, C3))
        lam12 = omg12 - self.f * self._A3(eps) * salp0 * (sig12 + B3)

        dlam = None
        if want_deriv:
            _, m12b = self._lengths(eps, sig12, ssig1, csig1, dn1,
                                    ssig2, csig2, dn2)
            with np.errstate(divide="ignore", invalid="ignore"):
                dlam = np.where(
                    calp2 == 0,
                    -2.0 * self.f1 * dn1 / sbet1,
                    m12b * self.f1 / (calp2 * cbet2))
        return lam12, dlam, salp2, calp2, sig12, eps, ssig1, csig1, \
            ssig2, csig2

    def _newton(self, sbet1, cbet1, dn1, sbet2, cbet2, dn2, lam12,
                salp1, calp1):
        """Safeguarded Newton on alpha1: lambda12 is monotone increasing
        in alpha1 for the canonical arrangement, so a [0, pi] bisection
        bracket guards every step."""
        alp1a = np.zeros(len(lam12))            # lambda too small side
        alp1b = np.full(len(lam12), np.pi)
        alp1 = np.arctan2(salp1, calp1)
        out = [None] * 10
        active = np.ones(len(lam12), bool)
        best_v = np.full(len(lam12), np.inf)
        for it in range(64):
            sa, ca = np.sin(alp1), np.cos(alp1)
            res = self._lambda12(sbet1, cbet1, dn1, sbet2, cbet2, dn2,
                                 sa, ca)
            v = res[0] - lam12
            if it == 0:
                out = [sa, ca, *res[2:]]
                best_v = np.abs(v)
            else:
                better = active & (np.abs(v) <= best_v)
                if better.any():
                    for slot, val in enumerate([sa, ca, *res[2:]]):
                        out[slot] = np.where(better, val, out[slot])
                    best_v = np.where(better, np.abs(v), best_v)
            conv = np.abs(v) < 64 * _TOL0
            active = active & ~conv
            if not active.any():
                break
            hi = v > 0
            alp1b = np.where(active & hi, np.minimum(alp1b, alp1), alp1b)
            alp1a = np.where(active & ~hi, np.maximum(alp1a, alp1), alp1a)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(res[1] > 0, -v / res[1], np.nan)
            cand = alp1 + step
            ok = np.isfinite(cand) & (cand > alp1a) & (cand < alp1b)
            alp1 = np.where(active,
                            np.where(ok, cand, 0.5 * (alp1a + alp1b)),
                            alp1)
            if np.all((alp1b - alp1a)[active] < 4 * _TOL0):
                # bracket exhausted: evaluate once more at the midpoint
                sa, ca = np.sin(alp1), np.cos(alp1)
                res = self._lambda12(sbet1, cbet1, dn1, sbet2, cbet2, dn2,
                                     sa, ca)
                v = res[0] - lam12
                better = active & (np.abs(v) <= best_v)
                for slot, val in enumerate([sa, ca, *res[2:]]):
                    out[slot] = np.where(better, val, out[slot])
                break
        return tuple(out)

    # ------------------------------------------------------------------
    # direct problem
    # ------------------------------------------------------------------

    def direct(self, lat1, lon1, azi1, s12):
        """Vectorized direct problem: (lat2, lon2, azi2) degrees."""
        lat1 = np.atleast_1d(np.asarray(lat1, np.float64))
        lon1 = np.atleast_1d(np.asarray(lon1, np.float64))
        azi1 = np.atleast_1d(np.asarray(azi1, np.float64))
        s12 = np.atleast_1d(np.asarray(s12, np.float64))
        lat1, lon1, azi1, s12 = np.broadcast_arrays(lat1, lon1, azi1, s12)

        salp1, calp1 = _sincosd(azi1)
        sbet1, cbet1 = _sincosd(lat1)
        sbet1 = sbet1 * self.f1
        sbet1, cbet1 = _norm2(sbet1, cbet1)
        cbet1 = np.maximum(cbet1, _TINY)
        dn1 = np.sqrt(1.0 + self.ep2 * sbet1**2)

        salp0 = salp1 * cbet1
        calp0 = np.hypot(calp1, salp1 * sbet1)
        # equatorial-eastward start has sbet1 == calp1 == 0: sigma1 =
        # omega1 = 0 there (the geod_lineinit guard in the paper's ref
        # implementation), not atan2(0, 0).
        czero = (sbet1 != 0) | (calp1 != 0)
        c1raw = np.where(czero, calp1 * cbet1, 1.0)
        ssig1, csig1 = _norm2(sbet1, c1raw)
        somg1, comg1 = salp0 * sbet1, c1raw

        k2 = calp0**2 * self.ep2
        eps = k2 / (2.0 * (1.0 + np.sqrt(1.0 + k2)) + k2)
        A1 = 1.0 + self._A1m1(eps)
        C1 = self._C1(eps)
        C1p = self._C1p(eps)
        B11 = _sincos_series(ssig1, csig1, C1)
        sB11, cB11 = np.sin(B11), np.cos(B11)
        stau1 = ssig1 * cB11 + csig1 * sB11
        ctau1 = csig1 * cB11 - ssig1 * sB11

        tau12 = s12 / (self.b * A1)
        st, ct = np.sin(tau12), np.cos(tau12)
        B1p = _sincos_series(stau1 * ct + ctau1 * st,
                             ctau1 * ct - stau1 * st, C1p)
        sig12 = tau12 + B11 + B1p
        ssig12, csig12 = np.sin(sig12), np.cos(sig12)

        ssig2 = ssig1 * csig12 + csig1 * ssig12
        csig2 = csig1 * csig12 - ssig1 * ssig12
        sbet2 = calp0 * ssig2
        cbet2 = np.hypot(salp0, calp0 * csig2)
        cbet2 = np.where(cbet2 == 0, _TINY, cbet2)
        somg2, comg2 = salp0 * ssig2, csig2
        salp2, calp2 = salp0, calp0 * csig2

        omg12 = np.arctan2(somg2 * comg1 - comg2 * somg1,
                           comg2 * comg1 + somg2 * somg1)
        C3 = self._C3(eps)
        B3 = (_sincos_series(ssig2, csig2, C3)
              - _sincos_series(ssig1, csig1, C3))
        lam12 = omg12 - self.f * self._A3(eps) * salp0 * (sig12 + B3)

        lat2 = np.degrees(np.arctan2(sbet2, self.f1 * cbet2))
        lon2 = lon1 + np.degrees(lam12)
        lon2 = np.remainder(lon2 + 180.0, 360.0) - 180.0
        azi2 = np.degrees(np.arctan2(salp2, calp2))
        return lat2, lon2, azi2

    # ------------------------------------------------------------------
    # polygon area / perimeter via the exact authalic mapping
    # ------------------------------------------------------------------

    def _authalic_sxi(self, lat_deg):
        """sin(authalic latitude): exact equal-area mapping (Snyder 3-11/
        3-12; no series)."""
        s, _ = _sincosd(lat_deg)
        if self.e2 == 0:
            return s
        e = np.sqrt(self.e2)
        q = (1.0 - self.e2) * (s / (1.0 - self.e2 * s * s)
                               - (1.0 / (2.0 * e))
                               * np.log((1.0 - e * s) / (1.0 + e * s)))
        qp = 1.0 + (1.0 - self.e2) * np.arctanh(e) / e
        return np.clip(q / qp, -1.0, 1.0)

    def polygon_area_perimeter(self, lats, lons, max_seg: float = 20_000.0):
        """Signed geodesic area (m^2, CCW positive) + perimeter (m) of one
        ring given as vertex arrays (closing vertex optional)."""
        lats = np.asarray(lats, np.float64)
        lons = np.asarray(lons, np.float64)
        if len(lats) >= 2 and lats[0] == lats[-1] and lons[0] == lons[-1]:
            lats, lons = lats[:-1], lons[:-1]
        n = len(lats)
        if n < 2:
            return 0.0, 0.0
        if n < 3:
            s, _, _ = self.inverse(lats[:-1], lons[:-1], lats[1:], lons[1:])
            return 0.0, float(s.sum())
        la2, lo2 = np.roll(lats, -1), np.roll(lons, -1)
        s12, azi1, _ = self.inverse(lats, lons, la2, lo2)
        perim = float(s12.sum())
        # densify: k extra points per edge so mapped edges are chords
        nseg = np.maximum(1, np.ceil(s12 / max_seg)).astype(np.int64)
        if (nseg > 1).any():
            reps = nseg  # vertex i followed by (nseg-1) interpolated points
            total = int(reps.sum())
            vlat = np.empty(total)
            vlon = np.empty(total)
            starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
            vlat[starts] = lats
            vlon[starts] = lons
            interp = reps > 1
            if interp.any():
                src = np.repeat(np.flatnonzero(interp), nseg[interp] - 1)
                # fraction 1/k .. (k-1)/k along each edge
                frac = (np.concatenate(
                    [np.arange(1, k) for k in nseg[interp]])
                    / np.repeat(nseg[interp], nseg[interp] - 1))
                plat, plon, _ = self.direct(lats[src], lons[src],
                                            azi1[src], s12[src] * frac)
                mask = np.ones(total, bool)
                mask[starts] = False
                vlat[mask] = plat
                vlon[mask] = plon
        else:
            vlat, vlon = lats, lons
        t = self._authalic_sxi(vlat)
        t = np.tan(0.5 * np.arcsin(t))           # tan(xi/2)
        lam = np.radians(vlon)
        dlam = np.roll(lam, -1) - lam
        dlam = np.remainder(dlam + np.pi, 2.0 * np.pi) - np.pi
        t2 = np.roll(t, -1)
        excess = 2.0 * np.arctan2(np.tan(0.5 * dlam) * (t + t2),
                                  1.0 + t * t2)
        return float(self.c2 * excess.sum()), perim


WGS84 = Geodesic()


def _packed(wkb_list):
    from .measures import pack_rings
    return pack_rings(wkb_list)


def geodesic_areas_wkb(wkb_list, geod: Geodesic = WGS84,
                       max_seg: float = 20_000.0) -> np.ndarray:
    """|outer| - sum|holes| geodesic area (m^2) per polygon/multipolygon
    feature, the OGR_G_GeodesicArea analog (ogr/ogr_api.cpp:1750)."""
    from .geom import wkb_header_type, wkb_type

    out = np.zeros(len(wkb_list))
    poly_idx = []
    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        base, _ = wkb_header_type(b)
        if base in (3, 6):
            poly_idx.append(i)
        else:
            wkb_type(b)     # not a surface: area 0, once read
    if not poly_idx:
        return out
    coords, rs, rf, rh, _ = _packed([wkb_list[i] for i in poly_idx])
    if len(coords) == 0:
        return out
    ring_areas = _ring_areas_vectorized(coords, rs, geod, max_seg)
    signed = np.where(rh, -np.abs(ring_areas), np.abs(ring_areas))
    np.add.at(out, np.asarray(poly_idx)[rf], signed)
    return out


def _ring_areas_vectorized(coords, rs, geod: Geodesic, max_seg: float):
    """Signed geodesic area per packed ring — ALL rings of a batch in
    one pass: one ``inverse`` call over every edge, one ``direct`` call
    for every densification point, one reduceat for the excess sums (no
    per-feature Python loop — the map_batches vectorization rule)."""
    n = len(coords)
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[rs[1:] - 1] = rs[:-1]
    lon1, lat1 = coords[:, 0], coords[:, 1]
    lon2, lat2 = coords[nxt, 0], coords[nxt, 1]
    s12, azi1, _ = geod.inverse(lat1, lon1, lat2, lon2)
    nseg = np.maximum(1, np.ceil(s12 / max_seg)).astype(np.int64)
    reps = nseg                       # vertex + (nseg-1) interpolated
    total = int(reps.sum())
    vlat = np.empty(total)
    vlon = np.empty(total)
    starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
    vlat[starts] = lat1
    vlon[starts] = lon1
    interp = reps > 1
    if interp.any():
        src = np.repeat(np.flatnonzero(interp), nseg[interp] - 1)
        frac = (np.concatenate([np.arange(1, k) for k in nseg[interp]])
                / np.repeat(nseg[interp], nseg[interp] - 1))
        plat, plon, _ = geod.direct(lat1[src], lon1[src], azi1[src],
                                    s12[src] * frac)
        mask = np.ones(total, bool)
        mask[starts] = False
        vlat[mask] = plat
        vlon[mask] = plon
    # densified ring layout mirrors the packed layout: ring r spans
    # positions dstarts[r]:dstarts[r+1]
    dsizes = np.add.reduceat(reps, rs[:-1])
    dstarts = np.concatenate([[0], np.cumsum(dsizes)])
    t = geod._authalic_sxi(vlat)
    t = np.tan(0.5 * np.arcsin(t))
    lam = np.radians(vlon)
    # next-within-ring on the densified layout
    dn = np.arange(1, total + 1, dtype=np.int64)
    dn[dstarts[1:] - 1] = dstarts[:-1]
    dlam = lam[dn] - lam
    dlam = np.remainder(dlam + np.pi, 2.0 * np.pi) - np.pi
    excess = 2.0 * np.arctan2(np.tan(0.5 * dlam) * (t + t[dn]),
                              1.0 + t * t[dn])
    return geod.c2 * np.add.reduceat(excess, dstarts[:-1])


def geodesic_lengths_wkb(wkb_list, geod: Geodesic = WGS84) -> np.ndarray:
    """Geodesic length (m) per feature: linestrings sum vertex-to-vertex
    geodesics; polygons sum every ring's perimeter (OGR_G_GeodesicLength,
    ogr/ogr_api.cpp:1666; surfaces per ogr/ogrcurvepolygon.cpp).  All
    features' edges are solved in ONE vectorized inverse() call."""
    from .curves import _linearize_curve, parse_curve_wkb
    from .geom import wkb_header_type

    lat1s, lon1s, lat2s, lon2s, feat = [], [], [], [], []

    def add_open(ln, i):
        ln = np.asarray(ln, np.float64)
        if len(ln) < 2:
            return
        lon1s.append(ln[:-1, 0]); lat1s.append(ln[:-1, 1])
        lon2s.append(ln[1:, 0]); lat2s.append(ln[1:, 1])
        feat.append(np.full(len(ln) - 1, i))

    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        bb = bytes(b)
        base, _ = wkb_header_type(bb)
        if base in (3, 6):                      # polygon family: rings
            coords, rs, _rf, _rh, _ = _packed([bb])
            for r in range(len(rs) - 1):
                seg = coords[rs[r]:rs[r + 1]]
                add_open(np.vstack([seg, seg[:1]]), i)
        else:                                   # line/curve family
            kind, payload = parse_curve_wkb(bb)
            if kind == "lines":
                for curve in payload:
                    add_open(_linearize_curve(curve, 4.0), i)
            else:                               # curve polygons: rings
                for rings in payload:
                    for curve in rings:
                        ln = np.asarray(_linearize_curve(curve, 4.0))
                        if len(ln) >= 2 and not np.array_equal(ln[0],
                                                               ln[-1]):
                            ln = np.vstack([ln, ln[:1]])
                        add_open(ln, i)
    out = np.zeros(len(wkb_list))
    if not feat:
        return out
    s12, _, _ = geod.inverse(np.concatenate(lat1s), np.concatenate(lon1s),
                             np.concatenate(lat2s), np.concatenate(lon2s))
    np.add.at(out, np.concatenate(feat), s12)
    return out


def geodesic_measures_batch(batch, wkb_col: str = "wkb",
                            round_to: int | None = None,
                            max_seg: float = 20_000.0):
    """Append geod_length_m / geod_area_m2 columns — pure function for
    ``map_batches`` (the solver is stateless; series coefficients are
    module-level constants, nothing to re-derive per batch)."""
    import pyarrow as pa
    wkb = batch.column(wkb_col).to_pylist()
    length = geodesic_lengths_wkb(wkb)
    area = geodesic_areas_wkb(wkb, max_seg=max_seg)
    if round_to is not None:
        length = np.round(length, round_to)
        area = np.round(area, round_to)
    return (batch.append_column("geod_length_m", pa.array(length))
            .append_column("geod_area_m2", pa.array(area)))
