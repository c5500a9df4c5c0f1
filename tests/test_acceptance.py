"""End-to-end validation battery with one printed verdict per check.

Each test exercises a complete capability — closed-form integrals, exact
circle references, convergence rates of the discrete geodesic tooling —
at pinned tolerances and wall-clock budgets, and prints a greppable
PASS/FAIL line even under pytest's output capture.  The convergence
checks measure observed rates against reference solutions computed at
much finer resolution inside the same run, so nothing here depends on
stored outputs.
"""

import math
import time

import numpy as np
import pytest

from conftest import circle, nearby_pair, perturbed_circle, rotate, tangent_field, translate
from sobcurve.cli import resolve_curve
from sobcurve.curve import pad
from sobcurve.energy import (
    EnergyKind,
    rational_time_integrals,
    w_bar_oracle,
    w_eval,
    w_value_and_grad,
)
from sobcurve.geodesic import SolverOptions, bvp_ladder, exp2, exp_k, log2, resample_path
from sobcurve.metric import MetricWeights, sobolev_norm, w_lin_oracle
from sobcurve.oracle import (
    christoffel_circle,
    curvature_numerator_circle,
    metric_derivatives_unit_speed,
    sectional_curvature_circle,
)
from sobcurve.transport import (
    CurvatureSchedule,
    cov_deriv,
    sectional_curvature,
    transport_inner_products,
    transport_path,
)

pytestmark = pytest.mark.slow  # deselect with -m "not slow"

UNIT = MetricWeights.of(1.0, 1.0, 1.0)
WEIGHTED = MetricWeights.of(1e-4, 1.0, 1e-2)

# the tangent fields of the two worked circle examples
COS_X = resolve_curve("cosx")  # (cos t, 0)
COS_Y = resolve_curve("cosy")  # (0, cos t)
MIX_V = resolve_curve("mixv")  # (-cos t / 2, sin t)
MIX_W = resolve_curve("mixw")  # (cos t, -sin t / 2)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _slope(ks, errs):
    return float(-np.polyfit(np.log(ks), np.log(errs), 1)[0])


def _path_rms(path, ref):
    k = path.num_segments
    total = sum(sobolev_norm(path[j] - ref[j], 2) ** 2 for j in range(k + 1))
    return float(np.sqrt(total / (k + 1)))


def test_01_time_integral_closed_forms_match_quadrature(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1000
    r = np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))
    p = np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))
    v = rng.uniform(0.001, 0.995, n)
    q = v * r * p
    rho, sigma, tau = (rng.uniform(-2.0, 2.0, n) for _ in range(3))
    closed = rational_time_integrals(r, p, q, rho, sigma, tau)

    x, wq = np.polynomial.legendre.leggauss(64)
    t = (0.5 * (x + 1.0))[:, None]
    wt = (0.5 * wq)[:, None]
    s = 1.0 - t
    length = s * r + t * p
    den = s * s * r * r + 2.0 * s * t * q + t * t * p * p
    quad = s * s * rho + 2.0 * s * t * tau + t * t * sigma
    integrands = (
        length,
        length / den,
        length / den**2,
        length * quad / den**3,
        length * quad * quad / den**4,
    )
    worst = 0.0
    for got, f in zip(closed, integrands):
        ref = np.sum(wt * f, axis=0)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(capsys, 1, "closed-form time integrals vs 64-node quadrature", ok,
             f"1000 tuples, worst rel err {worst:.3e} <= 1e-09; {elapsed:.2f}s < 5s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_02_circle_curvature_reference_values(capsys):
    t0 = time.perf_counter()
    v, w = COS_X, COS_Y
    g_vv = metric_derivatives_unit_speed(v, v, v, v, UNIT)[0]
    g_ww = metric_derivatives_unit_speed(w, w, w, w, UNIT)[0]
    numerator = curvature_numerator_circle(v, w, w, UNIT)
    kappa = sectional_curvature_circle(v, w, UNIT)
    err_g = max(abs(g_vv - 3.0 * np.pi), abs(g_ww - 3.0 * np.pi))
    err_num = abs(numerator + 31.0 * np.pi / 13.0)
    err_kap = abs(kappa + 31.0 / (117.0 * np.pi))
    elapsed = time.perf_counter() - t0

    ok = err_g <= 1e-12 and err_num <= 1e-12 and err_kap <= 1e-12 and elapsed < 1.0
    _verdict(capsys, 2, "circle sectional curvature closed values", ok,
             f"|g-3pi| {err_g:.1e}, numerator err {err_num:.1e}, "
             f"kappa err {err_kap:.1e}, all <= 1e-12; {elapsed:.2f}s < 1s")
    assert err_g <= 1e-12
    assert err_num <= 1e-12
    assert err_kap <= 1e-12
    assert elapsed < 1.0


def test_03_circle_christoffel_coefficients(capsys):
    # Unit-weight family at (cos,0)/(0,cos), then the strongly weighted
    # family at (-cos/2,sin)/(cos,-sin/2).  The weighted reference
    # coefficients are the ones consistent with the metric-compatibility
    # identity 2 g(Gamma(v,w),z) = D_v g(w,z) + D_w g(v,z) - D_z g(v,w);
    # the symbolic and finite-difference routes in the oracle agree on
    # them to machine precision.
    t0 = time.perf_counter()
    g_vw = pad(christoffel_circle(COS_X, COS_Y, UNIT), 4)
    g_ww = pad(christoffel_circle(COS_Y, COS_Y, UNIT), 4)
    g_wtd = pad(christoffel_circle(MIX_V, MIX_W, WEIGHTED), 4)

    checks = [
        (g_vw.sin_coeffs[:, 0], [-1 / 8, 0.0, 41 / 728, 0.0]),
        (g_vw.cos_coeffs[:, 1], [0.0, -3 / 8, 0.0, 41 / 728, 0.0]),
        (g_vw.cos_coeffs[:, 0], np.zeros(5)),
        (g_vw.sin_coeffs[:, 1], np.zeros(4)),
        (g_ww.cos_coeffs[:, 0], [0.0, 3 / 8, 0.0, -9 / 728, 0.0]),
        (g_ww.sin_coeffs[:, 1], [-1 / 8, 0.0, 73 / 728, 0.0]),
        (g_wtd.cos_coeffs[:, 0], [0.0, -4027 / 107744, 0.0, -305091 / 3139232, 0.0]),
        (g_wtd.sin_coeffs[:, 1], [-4027 / 107744, 0.0, 305091 / 3139232, 0.0]),
        (g_wtd.sin_coeffs[:, 0], np.zeros(4)),
        (g_wtd.cos_coeffs[:, 1], np.zeros(5)),
    ]
    worst = max(float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
                for got, want in checks)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(capsys, 3, "circle Christoffel coefficients, both weight families", ok,
             f"worst abs err {worst:.3e} <= 1e-12; weighted reference taken from the "
             f"metric-compatibility identity; {elapsed:.2f}s < 1s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_04_sectional_curvature_estimator_second_order(capsys):
    t0 = time.perf_counter()
    exact = sectional_curvature_circle(COS_X, COS_Y, UNIT)
    c = pad(circle(), 20)
    ks = [4, 8, 16, 32, 64, 128, 256, 512]
    errs = []
    for k in ks:
        tau = 1.0 / k
        kap = sectional_curvature(
            c, COS_X, COS_Y, tau, CurvatureSchedule.central(tau), UNIT,
            EnergyKind.rat(), 80,
        )
        errs.append(abs(kap - exact))
    slope = _slope(ks[-4:], errs[-4:])
    elapsed = time.perf_counter() - t0

    ok = slope >= 1.7 and elapsed < 600.0
    _verdict(capsys, 4, "curvature estimator convergence (central schedule)", ok,
             f"K=4..512, tail slope {slope:.3f} >= 1.7, final err {errs[-1]:.2e}; "
             f"{elapsed:.1f}s < 600s")
    assert slope >= 1.7
    assert elapsed < 600.0


def test_05_covariant_derivative_rate_tracks_smoothing(capsys):
    t0 = time.perf_counter()
    target = christoffel_circle(MIX_V, MIX_W, WEIGHTED)
    c = pad(circle(), 20)
    ks = [8, 16, 32, 64, 128, 256, 512]
    slopes = {}
    for label, rule in (("eps=tau", lambda t: t), ("eps=sqrt(tau)", math.sqrt)):
        errs = []
        for k in ks:
            tau = 1.0 / k
            out = cov_deriv(c, MIX_V, MIX_W, tau, WEIGHTED, EnergyKind.reg(rule(tau)), 80)
            errs.append(sobolev_norm(out - target, 2))
        slopes[label] = _slope(ks, errs)
    elapsed = time.perf_counter() - t0

    ok = (abs(slopes["eps=tau"] - 1.0) <= 0.3
          and abs(slopes["eps=sqrt(tau)"] - 0.5) <= 0.2
          and elapsed < 600.0)
    _verdict(capsys, 5, "covariant derivative rates under smoothing schedules", ok,
             f"K=8..512 (6 octaves): slope {slopes['eps=tau']:.3f} in 1.0+-0.3 for eps=tau, "
             f"{slopes['eps=sqrt(tau)']:.3f} in 0.5+-0.2 for eps=sqrt(tau); "
             f"{elapsed:.1f}s < 600s")
    assert abs(slopes["eps=tau"] - 1.0) <= 0.3
    assert abs(slopes["eps=sqrt(tau)"] - 0.5) <= 0.2
    assert elapsed < 600.0


def test_06_shooting_endpoint_convergence(capsys):
    t0 = time.perf_counter()
    c0 = pad(circle(), 30)
    v = MIX_V
    m = 120
    ref = exp_k(c0, v, 8192, WEIGHTED, EnergyKind.rat(), m)[-1]
    ks = [4, 8, 16, 32, 64, 128, 256, 512]
    slopes = {}
    for label, kind_of in (
        ("rational", lambda k: EnergyKind.rat()),
        ("eps=1/sqrt(K)", lambda k: EnergyKind.reg(1.0 / math.sqrt(k))),
    ):
        errs = []
        for k in ks:
            end = exp_k(c0, v, k, WEIGHTED, kind_of(k), m)[-1]
            errs.append(sobolev_norm(end - ref, 2))
        slopes[label] = _slope(ks[len(ks) // 2:], errs[len(ks) // 2:])
    elapsed = time.perf_counter() - t0

    ok = (abs(slopes["rational"] - 1.0) <= 0.2
          and abs(slopes["eps=1/sqrt(K)"] - 0.5) <= 0.2
          and elapsed < 1800.0)
    _verdict(capsys, 6, "exponential map endpoint convergence", ok,
             f"K=4..512 vs K=8192 reference: rational slope {slopes['rational']:.3f} "
             f"in 1.0+-0.2, smoothed eps=1/sqrt(K) slope {slopes['eps=1/sqrt(K)']:.3f} "
             f"in 0.5+-0.2; {elapsed:.1f}s < 1800s")
    assert abs(slopes["rational"] - 1.0) <= 0.2
    assert abs(slopes["eps=1/sqrt(K)"] - 0.5) <= 0.2
    assert elapsed < 1800.0


def test_07_boundary_value_path_convergence(capsys):
    t0 = time.perf_counter()
    n, m = 40, 160
    c_a = pad(resolve_curve("circle"), n)
    c_b = pad(resolve_curve("star"), n)
    ks = [4, 8, 16, 32, 64, 128, 256, 512]

    rat = bvp_ladder(c_a, c_b, ks + [1024], WEIGHTED, EnergyKind.rat(), m)
    ref = rat[1024]
    errs_rat = [_path_rms(rat[k], resample_path(ref, k)) for k in ks]
    reg = bvp_ladder(c_a, c_b, ks, WEIGHTED, lambda k: EnergyKind.reg(1.0 / k), m)
    errs_reg = [_path_rms(reg[k], resample_path(ref, k)) for k in ks]

    tail = slice(len(ks) // 2, None)
    slope_rat = _slope(ks[tail], errs_rat[tail])
    slope_reg = _slope(ks[tail], errs_reg[tail])
    elapsed = time.perf_counter() - t0

    ok = (abs(slope_rat - 2.0) <= 0.4
          and abs(slope_reg - 1.0) <= 0.3
          and elapsed < 1800.0)
    _verdict(capsys, 7, "boundary value path convergence (circle to star)", ok,
             f"K=4..512 vs K=1024 reference: rational slope {slope_rat:.3f} in 2.0+-0.4, "
             f"smoothed eps=1/K slope {slope_reg:.3f} in 1.0+-0.3; {elapsed:.1f}s < 1800s")
    assert abs(slope_rat - 2.0) <= 0.4
    assert abs(slope_reg - 1.0) <= 0.3
    assert elapsed < 1800.0


def test_08_energy_property_battery(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    m = 64
    kinds = (EnergyKind.rat(), EnergyKind.reg(1e-3))
    worst = {"diag": 0.0, "sym": 0.0, "inv": 0.0, "order": 0.0, "grad": 0.0}
    h = 1e-6
    for i in range(200):
        a, b = nearby_pair(rng)
        kind = kinds[i % 2]

        worst["diag"] = max(worst["diag"], abs(w_eval(a, a, UNIT, kind, m)))

        wab = w_eval(a, b, UNIT, kind, m)
        wba = w_eval(b, a, UNIT, kind, m)
        scale = max(abs(wab), 1.0)
        worst["sym"] = max(worst["sym"], abs(wab - wba) / scale)

        ang = rng.uniform(0.0, 2.0 * np.pi)
        off = tuple(rng.normal(size=2))
        moved = w_eval(translate(a, off), translate(b, off), UNIT, kind, m)
        turned = w_eval(rotate(a, ang), rotate(b, ang), UNIT, kind, m)
        worst["inv"] = max(worst["inv"], abs(moved - wab) / scale, abs(turned - wab) / scale)

        lin = w_lin_oracle(a, b, UNIT, m)
        bar = w_bar_oracle(a, b, UNIT, m)
        rat = w_eval(a, b, UNIT, EnergyKind.rat(), m)
        reg = w_eval(a, b, UNIT, EnergyKind.reg(1e-3), m)
        slack = 1e-10 * max(lin, 1.0)
        violation = max(lin - bar, bar - rat, lin - reg)
        worst["order"] = max(worst["order"], violation / slack)

        _, gh, gc = w_value_and_grad(a, b, UNIT, kind, m)
        d = tangent_field(rng, a.order, scale=0.3)
        if i % 2 == 0:
            fd = (w_eval(a + d * h, b, UNIT, kind, m)
                  - w_eval(a + d * (-h), b, UNIT, kind, m)) / (2.0 * h)
            dot = float(np.sum(gh.coeffs * d.coeffs))
        else:
            fd = (w_eval(a, b + d * h, UNIT, kind, m)
                  - w_eval(a, b + d * (-h), UNIT, kind, m)) / (2.0 * h)
            dot = float(np.sum(gc.coeffs * d.coeffs))
        worst["grad"] = max(worst["grad"], abs(dot - fd) / max(abs(fd), 1e-8))
    elapsed = time.perf_counter() - t0

    ok = (worst["diag"] <= 1e-14 and worst["sym"] <= 1e-12 and worst["inv"] <= 1e-11
          and worst["order"] <= 1.0 and worst["grad"] <= 1e-5 and elapsed < 120.0)
    _verdict(capsys, 8, "energy property battery (200 random pairs)", ok,
             f"diag {worst['diag']:.1e} <= 1e-14, sym {worst['sym']:.1e} <= 1e-12, "
             f"invariance {worst['inv']:.1e} <= 1e-11, ordering slack ratio "
             f"{worst['order']:.2f} <= 1, grad-vs-FD {worst['grad']:.1e} <= 1e-05; "
             f"{elapsed:.1f}s < 120s")
    assert worst["diag"] <= 1e-14
    assert worst["sym"] <= 1e-12
    assert worst["inv"] <= 1e-11
    assert worst["order"] <= 1.0
    assert worst["grad"] <= 1e-5
    assert elapsed < 120.0


def test_09_shoot_and_recover_roundtrip(capsys):
    t0 = time.perf_counter()
    opts = SolverOptions()
    m = 64
    rng = np.random.default_rng(123)
    worst = 0.0
    for i in range(100):
        c0 = perturbed_circle(rng)
        v = tangent_field(rng, 4, scale=0.15)
        kind = EnergyKind.rat() if i % 2 == 0 else EnergyKind.reg(1e-3)
        c2 = exp2(c0, v, WEIGHTED, kind, m, opts)
        v_rec = log2(c0, c2, WEIGHTED, kind, m, opts)
        bound = 10.0 * opts.fixed_point_tol * (1.0 + sobolev_norm(v, 2))
        worst = max(worst, sobolev_norm(v_rec - v, 2) / bound)

    # the correction beyond c + s v must be quadratically small in s with
    # a stable constant
    rng2 = np.random.default_rng(7)
    c = perturbed_circle(rng2)
    u = tangent_field(rng2, 4, scale=1.0)
    spreads, bounded = [], True
    for kind in (EnergyKind.rat(), EnergyKind.reg(1e-3)):
        ratios = []
        for s in (1e-1, 1e-2, 1e-3):
            dev = sobolev_norm(exp2(c, u * s, WEIGHTED, kind, m, opts) - c - u * s, 2)
            ratios.append(dev / s**2)
        spreads.append(max(ratios) / min(ratios))
        bounded = bounded and all(0.5 <= r <= 20.0 for r in ratios)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1.0 and bounded and max(spreads) <= 2.5 and elapsed < 300.0
    _verdict(capsys, 9, "shoot/recover roundtrip and quadratic correction", ok,
             f"100 roundtrips, worst err/bound {worst:.3f} <= 1; deviation-over-s^2 "
             f"bounded with spread {max(spreads):.2f} <= 2.5 across s=1e-1..1e-3; "
             f"{elapsed:.1f}s < 300s")
    assert worst <= 1.0
    assert bounded
    assert max(spreads) <= 2.5
    assert elapsed < 300.0


def test_10_transport_isometry_and_convergence(capsys):
    t0 = time.perf_counter()
    n, m = 30, 120
    c_a = pad(resolve_curve("circle"), n)
    c_b = pad(resolve_curve("circle:1.2"), n)
    w0 = resolve_curve("normal5")
    ladder = bvp_ladder(c_a, c_b, [4, 16, 64, 256, 1024], WEIGHTED, EnergyKind.rat(), m)

    vectors = transport_path(ladder[256], w0, WEIGHTED, EnergyKind.rat(), m, return_all=True)
    alphas = transport_inner_products(ladder[256], vectors, WEIGHTED, EnergyKind.rat(), m)
    drift = 256.0 * np.abs(np.diff(alphas))
    ratio = float(drift.max() / np.median(drift))
    half = len(drift) // 2
    m1, m2 = float(np.mean(drift[:half])), float(np.mean(drift[half:]))
    trend = max(m1, m2) / min(m1, m2)

    base = ladder[1024]
    ref_vec = transport_path(resample_path(base, 8192), w0, WEIGHTED, EnergyKind.rat(), m)
    ks = [8, 16, 32, 64, 128]
    errs = []
    for k in ks:
        moved = transport_path(resample_path(base, k), w0, WEIGHTED, EnergyKind.reg(1.0 / k), m)
        errs.append(sobolev_norm(moved - ref_vec, 2))
    slope = _slope(ks, errs)
    elapsed = time.perf_counter() - t0

    ok = ratio <= 10.0 and trend <= 10.0 and abs(slope - 1.0) <= 0.3 and elapsed < 1800.0
    _verdict(capsys, 10, "transport angle drift and convergence", ok,
             f"drift max/median {ratio:.2f} <= 10 with no runaway trend "
             f"(half-means ratio {trend:.2f}); smoothed eps=tau transport slope "
             f"{slope:.3f} in 1.0+-0.3; {elapsed:.1f}s < 1800s")
    assert ratio <= 10.0
    assert trend <= 10.0
    assert abs(slope - 1.0) <= 0.3
    assert elapsed < 1800.0
