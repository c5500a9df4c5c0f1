import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle, nearby_pair, perturbed_circle, rotate, tangent_field, translate
from sobcurve.cli import resolve_curve
from sobcurve.curve import FourierCurve, pad, sample_jet
from sobcurve.errors import (
    DegenerateCurve,
    InsufficientSamples,
    NonPositiveLowerBound,
    NonPositiveQ,
)
from sobcurve.energy import (
    EnergyKind,
    _asinc,
    _oracle_jets,
    _rat_node_scalar,
    hessian_at_diagonal,
    length_bounds,
    rational_time_integrals,
    smooth_max_min,
    w_bar_oracle,
    w_eval,
    w_grad,
    w_value_and_grad,
)
from sobcurve.geodesic import exp_k
from sobcurve.metric import MetricWeights, gram_scalar, metric_eval, w_lin_oracle

W2 = MetricWeights.of(1.0, 1.0, 1.0)
M = 64
KINDS = [EnergyKind.rat(), EnergyKind.reg(0.1), EnergyKind.reg(1e-4)]


def kind_id(kind):
    return kind.name if kind.is_rat else f"reg{kind.epsilon}"


# ---------------------------------------------------------------------------
# Energy kinds and smoothed bounds
# ---------------------------------------------------------------------------


class TestEnergyKind:
    def test_constructors(self):
        assert EnergyKind.rat().is_rat
        assert EnergyKind.reg(0.5).epsilon == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyKind("reg")
        with pytest.raises(ValueError):
            EnergyKind.reg(0.0)
        with pytest.raises(ValueError):
            EnergyKind.reg(np.inf)
        with pytest.raises(ValueError):
            EnergyKind.reg(np.nan)
        with pytest.raises(ValueError):
            EnergyKind("rat", 0.1)
        with pytest.raises(ValueError):
            EnergyKind("smooth", 0.1)


def test_smooth_max_min_diagonal_and_ordering():
    mx, mn = smooth_max_min(2.0, 2.0, 0.5)
    assert mx == pytest.approx(2.25)
    assert mn == pytest.approx(1.75)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=50), rng.normal(size=50)
    mx, mn = smooth_max_min(a, b, 0.1)
    assert np.all(mx >= np.maximum(a, b))
    assert np.all(mn <= np.minimum(a, b))
    # converges to the exact max/min as the smoothing vanishes
    mx, mn = smooth_max_min(a, b, 1e-12)
    np.testing.assert_allclose(mx, np.maximum(a, b), atol=1e-11)
    np.testing.assert_allclose(mn, np.minimum(a, b), atol=1e-11)


def test_length_bounds_on_diagonal():
    rng = np.random.default_rng(1)
    c = perturbed_circle(rng)
    eps = 0.05
    lplus, lminus = length_bounds(c, c, eps, M)
    speed = np.linalg.norm(sample_jet(c, M, 1)[1], axis=1)
    np.testing.assert_allclose(lplus, speed + eps / 2.0, atol=1e-14)
    np.testing.assert_allclose(lminus, speed - eps / 2.0, atol=1e-14)


def test_length_bounds_contain_blend_speeds():
    # the smoothed bounds sandwich |(1-t) hat' + t check'| for every t
    rng = np.random.default_rng(2)
    a, b = nearby_pair(rng)
    lplus, lminus = length_bounds(a, b, 0.01, M)
    ap = sample_jet(a, M, 1)[1]
    bp = sample_jet(b, M, 1)[1]
    t = np.linspace(0.0, 1.0, 1000)[:, None, None]
    speeds = np.linalg.norm((1.0 - t) * ap + t * bp, axis=2)  # (T, M)
    assert np.all(speeds <= lplus[None, :] + 1e-12)
    assert np.all(speeds >= lminus[None, :] - 1e-12)


def test_length_bounds_warn_when_epsilon_dominates():
    c = circle()
    with pytest.warns(RuntimeWarning):
        length_bounds(c, c, 2.5, M)


def _long_stack_call():
    # 40 segments of 64 nodes: two blocks of the stacked kernel
    pair = np.stack([circle().coeffs, circle(1.05).coeffs])
    hat, chk = np.repeat(pair[:, None], 40, axis=1)
    w_eval(hat, chk, W2, EnergyKind.reg(2.0), M)


def _shot_through_a_slow_trial():
    # one trial point of the second step slows below epsilon / 2; the shot
    # still lands (the command line's `exp` with --epsilon 0.6 -K 4 -N 8)
    c0, v = (pad(resolve_curve(name), 8) for name in ("circle", "mixv"))
    exp_k(c0, v, 4, MetricWeights.of(1e-4, 1.0, 1e-2), EnergyKind.reg(0.6), 32)


EPSILON_WARNING_CALLS = {
    "w_eval": lambda: w_eval(circle(), circle(1.05), W2, EnergyKind.reg(2.0), M),
    "w_grad": lambda: w_grad(circle(), circle(1.05), W2, EnergyKind.reg(2.0), M),
    "w_value_and_grad": lambda: w_value_and_grad(circle(), circle(1.05), W2,
                                                 EnergyKind.reg(2.0), M),
    "length_bounds": lambda: length_bounds(circle(), circle(), 2.5, M),
    "long_stack": _long_stack_call,
    "solver": _shot_through_a_slow_trial,
}


@pytest.mark.parametrize("call", EPSILON_WARNING_CALLS.values(), ids=EPSILON_WARNING_CALLS)
def test_epsilon_warning_names_the_calling_file(call):
    # the warning points at the first frame outside the package, however
    # deep inside it the check ran
    with pytest.warns(RuntimeWarning, match="twice the minimal speed") as record:
        call()
    lines, first = inspect.getsourcelines(call)
    for warning in record:
        assert warning.filename == __file__
        assert first <= warning.lineno < first + len(lines)


@pytest.mark.parametrize("eps", [-0.1, 0.0, np.nan, np.inf])
def test_length_bounds_reject_bad_epsilon(eps):
    # the smoothed energy's own check: -0.1 used to give the bounds of +0.1
    c = circle()
    with pytest.raises(ValueError, match="finite epsilon > 0"):
        length_bounds(c, c, eps, M)


# ---------------------------------------------------------------------------
# Shared energy properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
class TestEnergyProperties:
    def test_zero_on_diagonal(self, kind):
        rng = np.random.default_rng(3)
        c = perturbed_circle(rng)
        assert w_eval(c, c, W2, kind, M) == pytest.approx(0.0, abs=1e-14)

    def test_gradient_zero_on_diagonal(self, kind):
        rng = np.random.default_rng(4)
        c = perturbed_circle(rng)
        gh, gc = w_grad(c, c, W2, kind, M)
        assert np.abs(gh.coeffs).max() == pytest.approx(0.0, abs=1e-12)
        assert np.abs(gc.coeffs).max() == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, kind):
        rng = np.random.default_rng(5)
        a, b = nearby_pair(rng)
        assert w_eval(a, b, W2, kind, M) == pytest.approx(
            w_eval(b, a, W2, kind, M), rel=1e-12
        )

    def test_rigid_motion_invariance(self, kind):
        rng = np.random.default_rng(6)
        a, b = nearby_pair(rng)
        ref = w_eval(a, b, W2, kind, M)
        moved = w_eval(translate(a, (1.5, -4.0)), translate(b, (1.5, -4.0)), W2, kind, M)
        assert moved == pytest.approx(ref, rel=1e-11)
        ang = 1.1
        turned = w_eval(rotate(a, ang), rotate(b, ang), W2, kind, M)
        assert turned == pytest.approx(ref, rel=1e-11)

    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        a, b = nearby_pair(rng)
        _, gh, gc = w_value_and_grad(a, b, W2, kind, M)
        h = 1e-6
        for _ in range(4):
            d = tangent_field(rng, a.order, scale=0.3)
            fd = (w_eval(a + d * h, b, W2, kind, M) - w_eval(a + d * (-h), b, W2, kind, M)) / (2 * h)
            assert float(np.sum(gh.coeffs * d.coeffs)) == pytest.approx(
                fd, rel=1e-5, abs=1e-10
            )
            fd = (w_eval(a, b + d * h, W2, kind, M) - w_eval(a, b + d * (-h), W2, kind, M)) / (2 * h)
            assert float(np.sum(gc.coeffs * d.coeffs)) == pytest.approx(
                fd, rel=1e-5, abs=1e-10
            )

    def test_second_derivative_consistency(self, kind):
        # the three diagonal second derivatives agree: d11 = d22 = -d12,
        # each equal to twice a metric-like form; checked via finite
        # differences of the energy itself, so no oracle enters.
        rng = np.random.default_rng(8)
        c = perturbed_circle(rng)
        u = tangent_field(rng, c.order, scale=0.5)
        s = 1e-4
        w = lambda x, y: w_eval(x, y, W2, kind, M)
        d22 = (w(c, c + u * s) + w(c, c + u * (-s))) / s**2
        d11 = (w(c + u * s, c) + w(c + u * (-s), c)) / s**2
        d12 = (
            w(c + u * s, c + u * s)
            - w(c + u * s, c + u * (-s))
            - w(c + u * (-s), c + u * s)
            + w(c + u * (-s), c + u * (-s))
        ) / (4 * s**2)
        assert d11 == pytest.approx(d22, rel=1e-6)
        assert d12 == pytest.approx(-d22, rel=1e-4)


def test_second_order_expansion_against_metric():
    # W[c, c + s u] / s^2 -> g_c(u, u) as s -> 0 (exactly for rat; up to an
    # epsilon-sized offset for reg)
    rng = np.random.default_rng(9)
    c = perturbed_circle(rng)
    u = tangent_field(rng, c.order, scale=0.5)
    g = metric_eval(c, u, u, W2, M)
    for s in (1e-3, 1e-4):
        ratio = w_eval(c, c + u * s, W2, EnergyKind.rat(), M) / s**2
        assert ratio == pytest.approx(g, rel=50 * s)
    eps = 1e-5
    ratio = w_eval(c, c + u * 1e-4, W2, EnergyKind.reg(eps), M) / 1e-8
    assert ratio == pytest.approx(g, rel=1e-3)


def test_ordering_chain():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b = nearby_pair(rng)
        lin = w_lin_oracle(a, b, W2, M)
        bar = w_bar_oracle(a, b, W2, M)
        rat = w_eval(a, b, W2, EnergyKind.rat(), M)
        reg = w_eval(a, b, W2, EnergyKind.reg(1e-3), M)
        slack = 1e-10 * max(lin, 1.0)
        assert lin <= bar + slack
        assert bar <= rat + slack
        assert lin <= reg + slack


# ---------------------------------------------------------------------------
# The smoothed-bound energy against an independent monomial expansion
# ---------------------------------------------------------------------------


def w_reg_monomial(c_hat, c_check, weights, epsilon, num_nodes):
    """Order-2 reference evaluation expanding the quartic t-polynomial in the
    Bernstein basis; weights 1/5, 1/20, 1/30 are the exact integrals of
    (1-t)^a t^(4-a)."""
    a0, a1, a2 = weights.coefficients
    hat = sample_jet(c_hat, num_nodes, 2)
    chk = sample_jet(c_check, num_nodes, 2)
    lplus, lminus = length_bounds(c_hat, c_check, epsilon, num_nodes)
    d0, d1, d2 = chk[0] - hat[0], chk[1] - hat[1], chk[2] - hat[2]

    r2 = np.sum(hat[1] * hat[1], axis=1)
    p2 = np.sum(chk[1] * chk[1], axis=1)
    q = np.sum(hat[1] * chk[1], axis=1)
    rho = np.sum(hat[1] * hat[2], axis=1)
    sigma = np.sum(chk[1] * chk[2], axis=1)
    tau2 = np.sum(hat[1] * chk[2], axis=1) + np.sum(chk[1] * hat[2], axis=1)

    # P2(t) = |c'|^2 delta'' - (c'.c'') delta' in the Bernstein basis
    x = r2[:, None] * d2 - rho[:, None] * d1
    y = 2.0 * q[:, None] * d2 - tau2[:, None] * d1
    z = p2[:, None] * d2 - sigma[:, None] * d1
    quartic = (
        (np.sum(x * x, 1) + np.sum(z * z, 1)) / 5.0
        + (np.sum(x * y, 1) + np.sum(y * z, 1)) / 10.0
        + np.sum(y * y, 1) / 30.0
        + np.sum(x * z, 1) / 15.0
    )
    integrand = (
        a0 * lplus * np.sum(d0 * d0, 1)
        + a1 * lminus ** (-1) * np.sum(d1 * d1, 1)
        + a2 * lminus ** (-7) * quartic
    )
    return float(2.0 * np.pi / num_nodes * np.sum(integrand))


@pytest.mark.parametrize("pair", ["circles", "random"])
def test_w_reg_matches_monomial_expansion(pair):
    if pair == "circles":
        a, b = circle(1.0), circle(1.1)
    else:
        a, b = nearby_pair(np.random.default_rng(11))
    eps = 0.01
    got = w_eval(a, b, W2, EnergyKind.reg(eps), M)
    ref = w_reg_monomial(a, b, W2, eps, M)
    assert got == pytest.approx(ref, rel=1e-10)


def test_w_reg_higher_order_runs():
    # m = 3 exercises the deeper recursion; value positive and symmetric
    w3 = MetricWeights.of(1.0, 0.5, 0.25, 0.125)
    rng = np.random.default_rng(12)
    a, b = nearby_pair(rng)
    kind = EnergyKind.reg(1e-3)
    val = w_eval(a, b, w3, kind, M)
    assert val > 0.0
    assert val == pytest.approx(w_eval(b, a, w3, kind, M), rel=1e-12)


HIGHER_ORDERS = [
    pytest.param(MetricWeights.of(1.0, 0.0, 0.5, 0.25), id="m3"),
    pytest.param(MetricWeights.of(1.0, 0.5, 0.25, 0.0, 0.125), id="m4"),
]


@pytest.mark.parametrize("weights", HIGHER_ORDERS)
def test_w_reg_gradient_at_higher_order(weights):
    # the generic-m reverse sweep: central differences on one pair, and a
    # 3-segment stack against its per-pair calls; a zero coefficient drops
    # one P_j term from the value but not from the recursion
    kind = EnergyKind.reg(1 / 64)
    rng = np.random.default_rng(14)
    a, b = nearby_pair(rng)
    _, gh, gc = w_value_and_grad(a, b, weights, kind, M)
    w = lambda x, y: w_eval(x, y, weights, kind, M)
    h = 1e-6
    for _ in range(3):
        d = tangent_field(rng, a.order, scale=0.3)
        fd_hat = (w(a + d * h, b) - w(a + d * (-h), b)) / (2 * h)
        fd_chk = (w(a, b + d * h) - w(a, b + d * (-h))) / (2 * h)
        assert float(np.sum(gh.coeffs * d.coeffs)) == pytest.approx(fd_hat, rel=1e-5, abs=1e-10)
        assert float(np.sum(gc.coeffs * d.coeffs)) == pytest.approx(fd_chk, rel=1e-5, abs=1e-10)

    path = curve_stack(rng, 4)
    hat, chk = path[:-1], path[1:]
    values, sh, sc = w_value_and_grad(hat, chk, weights, kind, STACK_M)
    pairs = per_pair(w_value_and_grad, hat, chk, weights, kind, STACK_M)
    for s, (value, ph, pc) in enumerate(pairs):
        assert values[s] == pytest.approx(value, rel=1e-14)
        scale = max(np.abs(ph.coeffs).max(), np.abs(pc.coeffs).max())
        np.testing.assert_allclose(sh[s], ph.coeffs, rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(sc[s], pc.coeffs, rtol=0.0, atol=1e-13 * scale)


def test_w_reg_epsilon_too_large_raises():
    a, b = circle(1.0), circle(1.01)
    with pytest.raises(NonPositiveLowerBound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w_eval(a, b, W2, EnergyKind.reg(3.0), M)


# ---------------------------------------------------------------------------
# Closed-form time integrals
# ---------------------------------------------------------------------------


def random_coefficient_tuples(rng, n):
    """Random (r, p, q, rho, sigma, tau) with 0 < q < r p."""
    r = rng.uniform(0.3, 3.0, n)
    p = rng.uniform(0.3, 3.0, n)
    q = r * p * rng.uniform(0.05, 0.999, n)
    rho, sigma, tau = (rng.normal(scale=1.5, size=n) for _ in range(3))
    return r, p, q, rho, sigma, tau


def quadrature_reference(r, p, q, rho, sigma, tau, num_t=64):
    nodes, glw = np.polynomial.legendre.leggauss(num_t)
    t = 0.5 * (nodes + 1.0)
    glw = 0.5 * glw
    shape = np.broadcast(r, p).shape
    vals = [np.zeros(shape) for _ in range(5)]
    for ti, wi in zip(t, glw):
        length = (1.0 - ti) * r + ti * p
        dsq = (1.0 - ti) ** 2 * r**2 + 2.0 * ti * (1.0 - ti) * q + ti**2 * p**2
        quad = (1.0 - ti) ** 2 * rho + 2.0 * ti * (1.0 - ti) * tau + ti**2 * sigma
        vals[0] += wi * length
        vals[1] += wi * length / dsq
        vals[2] += wi * length / dsq**2
        vals[3] += wi * length * quad / dsq**3
        vals[4] += wi * length * quad**2 / dsq**4
    return vals


def test_closed_forms_match_quadrature():
    rng = np.random.default_rng(13)
    r, p, q, rho, sigma, tau = random_coefficient_tuples(rng, 300)
    closed = rational_time_integrals(r, p, q, rho, sigma, tau)
    reference = quadrature_reference(r, p, q, rho, sigma, tau)
    for got, ref in zip(closed, reference):
        np.testing.assert_allclose(got, ref, rtol=1e-9)


def test_closed_forms_near_diagonal():
    # r = p, q -> rp is the diagonal; the guarded series paths stay accurate.
    # (Beyond v ~ 1 - 1e-7 the *inputs* 1 - q/(rp) lose digits to cancellation,
    # so that regime is meaningless to compare at tight tolerance.)
    rng = np.random.default_rng(14)
    n = 200
    r = rng.uniform(0.5, 2.0, n)
    p = r * (1.0 + rng.uniform(-1e-6, 1e-6, n))
    q = r * p * (1.0 - 10.0 ** rng.uniform(-6, -3, n))
    rho, sigma, tau = (rng.normal(scale=0.5, size=n) for _ in range(3))
    closed = rational_time_integrals(r, p, q, rho, sigma, tau)
    reference = quadrature_reference(r, p, q, rho, sigma, tau)
    for got, ref in zip(closed, reference):
        np.testing.assert_allclose(got, ref, rtol=1e-8)


def test_closed_forms_small_correlation():
    # v -> 0 exercises the quadrature fallback of the two curvature integrals
    rng = np.random.default_rng(20)
    n = 200
    r = rng.uniform(0.3, 3.0, n)
    p = rng.uniform(0.3, 3.0, n)
    q = r * p * 10.0 ** rng.uniform(-7, -1.2, n)
    rho, sigma, tau = (rng.normal(scale=1.0, size=n) for _ in range(3))
    closed = rational_time_integrals(r, p, q, rho, sigma, tau)
    reference = quadrature_reference(r, p, q, rho, sigma, tau)
    for got, ref in zip(closed, reference):
        np.testing.assert_allclose(got, ref, rtol=1e-8)


def test_oracle_pairings_fields():
    rng = np.random.default_rng(15)
    a, b = nearby_pair(rng)
    _, _, (r, p, q, rho, sigma, tau) = _oracle_jets(a, b, M)
    hat = sample_jet(a, M, 2)
    chk = sample_jet(b, M, 2)
    np.testing.assert_allclose(r, np.linalg.norm(hat[1], axis=1), atol=1e-14)
    np.testing.assert_allclose(q, np.sum(hat[1] * chk[1], 1), atol=1e-14)
    # the exact inverse-sinc factor V = v asinc(1 - v^2) lies in [v, 1]
    v = q / (r * p)
    V = v * _asinc((1.0 - v) * (1.0 + v))
    assert np.all(V <= 1.0 + 1e-14)
    assert np.all(V >= v - 1e-14)
    # blend identities: |c_t'|^2 and c_t'.c_t'' are the stated t-quadratics
    for t in (0.25, 0.7):
        blend_p = (1.0 - t) * hat[1] + t * chk[1]
        blend_pp = (1.0 - t) * hat[2] + t * chk[2]
        dsq = (1 - t) ** 2 * r**2 + 2 * t * (1 - t) * q + t**2 * p**2
        quad = (1 - t) ** 2 * rho + 2 * t * (1 - t) * tau + t**2 * sigma
        np.testing.assert_allclose(np.sum(blend_p * blend_p, 1), dsq, rtol=1e-13)
        np.testing.assert_allclose(np.sum(blend_p * blend_pp, 1), quad, rtol=1e-12)


def test_oracle_pairings_reject_reversal():
    a = circle()
    b = FourierCurve(a.cos_coeffs.copy(), -a.sin_coeffs)  # reversed orientation
    with pytest.raises(NonPositiveQ):
        _oracle_jets(a, b, M)


def test_w_rat_infinite_on_reversal():
    a = circle()
    b = FourierCurve(a.cos_coeffs.copy(), -a.sin_coeffs)
    assert w_eval(a, b, W2, EnergyKind.rat(), M) == np.inf


def test_w_rat_order_restriction():
    w3 = MetricWeights.of(1.0, 1.0, 1.0, 1.0)
    a, b = circle(1.0), circle(1.1)
    with pytest.raises(ValueError):
        w_eval(a, b, w3, EnergyKind.rat(), M)


def test_w_bar_approaches_lin_near_diagonal():
    # the sharp bound meets the blended-metric quadrature to first order in
    # the separation (closer than ~1e-4 apart, cancellation in 1 - v makes
    # the bound itself noisy, so stop there)
    rng = np.random.default_rng(16)
    c = perturbed_circle(rng)
    u = tangent_field(rng, c.order, scale=0.5)
    for s, rel in ((1e-2, 5e-2), (1e-3, 5e-3)):
        d = c + u * s
        lin = w_lin_oracle(c, d, W2, M)
        bar = w_bar_oracle(c, d, W2, M)
        assert bar == pytest.approx(lin, rel=rel)
        assert bar >= lin * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Diagonal Hessian
# ---------------------------------------------------------------------------


def test_hessian_rat_is_twice_gram():
    rng = np.random.default_rng(17)
    c = perturbed_circle(rng, order=3)
    H = hessian_at_diagonal(c, W2, EnergyKind.rat(), M)
    G = np.kron(gram_scalar(c, W2, M), np.eye(c.dim))
    np.testing.assert_allclose(H, 2.0 * G, atol=1e-12)


def test_hessian_reg_sandwiched_by_gram():
    rng = np.random.default_rng(18)
    c = perturbed_circle(rng, order=3)
    eps = 0.05
    H = hessian_at_diagonal(c, W2, EnergyKind.reg(eps), M)
    G2 = 2.0 * np.kron(gram_scalar(c, W2, M), np.eye(c.dim))
    speed = np.linalg.norm(sample_jet(c, M, 1)[1], axis=1)
    upper = (1.0 - eps / (2.0 * np.min(speed))) ** (5 - 6 * 2)
    # the generalized eigenvalues of (H, G2): those of L^-1 H L^-T, G2 = L L^T
    inv_l = np.linalg.inv(np.linalg.cholesky(G2))
    vals = np.linalg.eigvalsh(inv_l @ H @ inv_l.T)
    assert np.all(vals >= 1.0 - 1e-8)
    assert np.all(vals <= upper + 1e-8)


@pytest.mark.parametrize("kind, weights", [
    pytest.param(KINDS[0], W2, id="rat"),
    pytest.param(KINDS[1], W2, id="reg0.1"),
    pytest.param(KINDS[1], MetricWeights.of(1.0, 0.0, 0.5, 0.25), id="reg0.1-m3"),
])
def test_hessian_matches_finite_differences(kind, weights):
    rng = np.random.default_rng(19)
    c = perturbed_circle(rng, order=2)
    H = hessian_at_diagonal(c, weights, kind, M)
    s = 1e-4
    for _ in range(3):
        u = tangent_field(rng, c.order, scale=0.5)
        flat = u.coeffs.ravel()
        second = (
            w_eval(c, c + u * s, weights, kind, M) + w_eval(c, c + u * (-s), weights, kind, M)
        ) / s**2
        assert second == pytest.approx(flat @ H @ flat, rel=1e-3)


# ---------------------------------------------------------------------------
# Closed-form partials of the rational integrand against an mpmath reference
# ---------------------------------------------------------------------------


def _mp_rational_partials(node, a, s0, s22):
    """d/d(r, p, q, rho, sigma, tau) of the per-node rational-energy
    integrand at 30 digits: b_repl and c_repl written out, the two
    curvature-weighted time integrals by mpmath.quad of the raw integrands,
    derivatives by mpmath.diff.  Shares no code with the closed forms."""
    mp = pytest.importorskip("mpmath")

    def integrand(r, p, q, rho, sigma, tau):
        v = q / (r * p)
        b_repl = (r + p) * (1 - v) / v + (r - p) * mp.log(r / p)
        c_repl = (1 / (r * q) + 1 / (p * q)) / 2

        def raw(t, power):
            s = 1 - t
            L = s * r + t * p
            D = s * s * r * r + 2 * s * t * q + t * t * p * p
            Q = s * s * rho + 2 * s * t * tau + t * t * sigma
            return L * Q**power / D ** (2 + power)

        def time_integral(power):
            return mp.quad(lambda t: raw(t, power), [0, 0.5, 1], method="gauss-legendre")

        i2b, i2c = time_integral(1), time_integral(2)
        return (
            a0 * (r + p) / 2 * s0
            + a1 * b_repl
            + a2 * (c_repl * s22 - 2 * i2b * (rho + sigma - 2 * tau)
                    + i2c * (r * r + p * p - 2 * q))
        )

    with mp.workdps(30):
        a0, a1, a2 = (mp.mpf(c) for c in a)
        s0, s22 = mp.mpf(s0), mp.mpf(s22)
        x = [mp.mpf(float(c)) for c in node]
        return np.array([
            float(mp.diff(integrand, x, tuple(int(i == k) for i in range(6))))
            for k in range(6)
        ])


def _regime_nodes(regime, rng, n=8):
    """(6, n) pairings (r, p, q, rho, sigma, tau) in one branch of the
    closed forms."""
    r = rng.uniform(0.3, 3.0, n)
    p = rng.uniform(0.3, 3.0, n)
    if regime == "v<1e-5":            # both curvature integrals by quadrature
        q = r * p * 10.0 ** rng.uniform(-8, -5.1, n)
    elif regime == "v<0.02":          # I2c by quadrature, I2b closed form
        q = r * p * 10.0 ** rng.uniform(-4.9, -1.8, n)
    elif regime == "xi<0.05":         # Taylor guards (test_closed_forms_near_diagonal)
        r = rng.uniform(0.5, 2.0, n)
        p = r * (1.0 + rng.uniform(-1e-6, 1e-6, n))
        q = r * p * (1.0 - 10.0 ** rng.uniform(-6, -3, n))
    else:
        q = r * p * rng.uniform(0.05, 0.97, n)
    rho, sigma, tau = (rng.normal(scale=1.5, size=n) for _ in range(3))
    return np.array([r, p, q, rho, sigma, tau])


@pytest.mark.slow
@pytest.mark.parametrize("regime", ["v<1e-5", "v<0.02", "xi<0.05", "generic"])
def test_rational_partials_match_mpmath(regime):
    rng = np.random.default_rng(21)
    nodes = _regime_nodes(regime, rng)
    a = (0.7, 1.3, 0.9)
    s0 = rng.uniform(0.0, 1.0, nodes.shape[1])
    s22 = rng.uniform(0.0, 1.0, nodes.shape[1])
    _, partials = _rat_node_scalar(*nodes, a, s0, s22, want_grad=True)
    got = np.array(partials)
    for i in range(nodes.shape[1]):
        ref = _mp_rational_partials(nodes[:, i], a, s0[i], s22[i])
        err = np.max(np.abs(got[:, i] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10, (regime, i, err)


# ---------------------------------------------------------------------------
# Property tests of both energies on small random pairs
# ---------------------------------------------------------------------------

RAT = EnergyKind.rat()
PROPERTY_KINDS = pytest.mark.parametrize("kind", [RAT, EnergyKind.reg(1 / 64)], ids=kind_id)
SMALL_PAIRS = dict(order=st.integers(1, 6), seed=st.integers(0, 2**31))


def _small_pair(order, seed):
    a, b = nearby_pair(np.random.default_rng(seed), order=order)
    return a, b, 4 * order + 4


@PROPERTY_KINDS
@settings(max_examples=30, derandomize=True, deadline=None)
@given(**SMALL_PAIRS)
def test_symmetry_property(kind, order, seed):
    a, b, m = _small_pair(order, seed)
    assert w_eval(a, b, W2, kind, m) == pytest.approx(w_eval(b, a, W2, kind, m), rel=1e-12)


@PROPERTY_KINDS
@settings(max_examples=30, derandomize=True, deadline=None)
@given(angle=st.floats(-np.pi, np.pi),
       shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       **SMALL_PAIRS)
def test_rigid_motion_property(kind, order, seed, angle, shift):
    a, b, m = _small_pair(order, seed)
    moved = [translate(rotate(c, angle), shift) for c in (a, b)]
    assert w_eval(*moved, W2, kind, m) == pytest.approx(w_eval(a, b, W2, kind, m), rel=1e-11)


@PROPERTY_KINDS
@settings(max_examples=30, derandomize=True, deadline=None)
@given(**SMALL_PAIRS)
def test_gradient_matches_central_differences_property(kind, order, seed):
    a, b, m = _small_pair(order, seed)
    _, gh, gc = w_value_and_grad(a, b, W2, kind, m)
    d = tangent_field(np.random.default_rng(seed + 1), order, scale=0.3)
    h = 1e-6
    w = lambda x, y: w_eval(x, y, W2, kind, m)
    fd_hat = (w(a + d * h, b) - w(a + d * (-h), b)) / (2 * h)
    fd_chk = (w(a, b + d * h) - w(a, b + d * (-h))) / (2 * h)
    assert float(np.sum(gh.coeffs * d.coeffs)) == pytest.approx(fd_hat, rel=1e-5, abs=1e-10)
    assert float(np.sum(gc.coeffs * d.coeffs)) == pytest.approx(fd_chk, rel=1e-5, abs=1e-10)


@PROPERTY_KINDS
@settings(max_examples=30, derandomize=True, deadline=None)
@given(**SMALL_PAIRS)
def test_gradients_cancel_along_translations_property(kind, order, seed):
    # W[a + s e, b + s e] is constant in s, and translation is the constant
    # mode: the two gradients' constant rows sum to zero
    a, b, m = _small_pair(order, seed)
    _, gh, gc = w_value_and_grad(a, b, W2, kind, m)
    scale = np.abs(gh.coeffs).max()
    np.testing.assert_allclose(gh.cos_coeffs[0] + gc.cos_coeffs[0], 0.0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# Aliasing grids are rejected at every entry point
# ---------------------------------------------------------------------------

GRID_ENTRY_POINTS = {
    "w_eval-rat": lambda a, b, m: w_eval(a, b, W2, RAT, m),
    "w_eval-reg": lambda a, b, m: w_eval(a, b, W2, EnergyKind.reg(1e-3), m),
    "w_value_and_grad": lambda a, b, m: w_value_and_grad(a, b, W2, RAT, m),
    "hessian_at_diagonal": lambda a, b, m: hessian_at_diagonal(a, W2, RAT, m),
    "metric_eval": lambda a, b, m: metric_eval(a, b - a, b - a, W2, m),
}


@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
def test_aliasing_grid_rejected(entry):
    # N = 30 needs M > 60: the boundary grid 60 and a coarse one raise, 61 works
    a, b = nearby_pair(np.random.default_rng(22), order=30, scale=0.02)
    call = GRID_ENTRY_POINTS[entry]
    for m in (20, 60):
        with pytest.raises(InsufficientSamples):
            call(a, b, m)
    call(a, b, 61)


@pytest.mark.parametrize("kind", [RAT, EnergyKind.reg(1e-3)], ids=kind_id)
def test_empty_and_negative_grids_rejected(kind):
    a, b = nearby_pair(np.random.default_rng(23))
    stacks = (np.stack([a.coeffs] * 3), np.stack([b.coeffs] * 3))
    for fn in (w_eval, w_grad, w_value_and_grad):
        for m in (0, -3):
            for pair in ((a, b), stacks):
                with pytest.raises(InsufficientSamples):
                    fn(*pair, W2, kind, m)


# ---------------------------------------------------------------------------
# Rounding floor of the gradients
# ---------------------------------------------------------------------------

FLOOR_ANGLES = np.linspace(0.0, 2.5, 6)


@pytest.mark.parametrize("kind", [RAT, EnergyKind.reg(1 / 64)], ids=kind_id)
def test_gradient_rounding_floor_under_rotation(kind):
    # A rigid rotation of both curves rotates the exact gradient, so what
    # R^T g(R c) - g(c) measures is the gradient's absolute rounding error.
    # The nested covariant quotients amplify it (acceptance 04 sits on that
    # floor), so a summation-order change that raises it fails here first.
    n = 30
    star = pad(resolve_curve("star"), n)
    hat, chk = star, star + pad(resolve_curve("normal5"), n) * 1e-6
    weights = MetricWeights.of(1e-4, 1.0, 1e-2)
    _, gh, gc = w_value_and_grad(hat, chk, weights, kind, 120)
    worst = 0.0
    for angle in FLOOR_ANGLES:
        _, rh, rc = w_value_and_grad(rotate(hat, angle), rotate(chk, angle), weights, kind, 120)
        for turned, ref in ((rh, gh), (rc, gc)):
            worst = max(worst, np.abs(rotate(turned, -angle).coeffs - ref.coeffs).max())
    assert worst <= 1e-13, f"gradient rounding floor {worst:.2e} > 1e-13"


# ---------------------------------------------------------------------------
# Stacked evaluation: many segments per call
# ---------------------------------------------------------------------------

STACK_M = 160  # 2048 // 160 = 12 segments per block, so 20 segments use two
STACK_KINDS = [RAT, EnergyKind.reg(1.0 / 64.0)]
STACK_ORDER = 8


def curve_stack(rng, count):
    """Coefficient stack (count, 2N+1, 2) of nearby perturbed unit circles."""
    return np.stack([perturbed_circle(rng, STACK_ORDER).coeffs for _ in range(count)])


def reversed_coeffs(coeffs):
    """The same curve traversed backwards (sine rows negated)."""
    out = coeffs.copy()
    out[STACK_ORDER + 1 :] *= -1.0
    return out


def per_pair(fn, hat, chk, *args):
    return [
        fn(FourierCurve.from_coeffs(h), FourierCurve.from_coeffs(c), *args)
        for h, c in zip(hat, chk)
    ]


@pytest.mark.parametrize("kind", STACK_KINDS, ids=kind_id)
@pytest.mark.parametrize("segments", [1, 2, 20])
def test_stacked_energies_match_per_pair_calls(kind, segments):
    path = curve_stack(np.random.default_rng(30 + segments), segments + 1)
    hat, chk = path[:-1], path[1:]
    values = w_eval(hat, chk, W2, kind, STACK_M)
    both, gh, gc = w_value_and_grad(hat, chk, W2, kind, STACK_M)
    assert values.shape == both.shape == (segments,)
    assert gh.shape == gc.shape == hat.shape
    pairs = per_pair(w_value_and_grad, hat, chk, W2, kind, STACK_M)
    loop = np.array([value for value, _, _ in pairs])
    np.testing.assert_allclose(values, loop, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(both, loop, rtol=1e-14, atol=0.0)
    for s, (_, ph, pc) in enumerate(pairs):
        scale = max(np.abs(ph.coeffs).max(), np.abs(pc.coeffs).max())
        np.testing.assert_allclose(gh[s], ph.coeffs, rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(gc[s], pc.coeffs, rtol=0.0, atol=1e-13 * scale)


def test_stacked_rational_energy_is_infinite_only_on_a_reversed_segment():
    path = curve_stack(np.random.default_rng(40), 6)
    hat, chk = path[:-1], path[1:].copy()
    chk[2] = reversed_coeffs(chk[2])
    values = w_eval(hat, chk, W2, RAT, STACK_M)
    assert np.isinf(values).tolist() == [False, False, True, False, False]
    finite = np.delete(np.arange(5), 2)
    loop = per_pair(w_eval, hat[finite], chk[finite], W2, RAT, STACK_M)
    np.testing.assert_allclose(values[finite], loop, rtol=1e-14, atol=0.0)
    with pytest.raises(NonPositiveQ):
        w_value_and_grad(hat, chk, W2, RAT, STACK_M)


@pytest.mark.parametrize("kind", STACK_KINDS, ids=kind_id)
def test_stack_errors_match_the_first_failing_segment(kind):
    path = curve_stack(np.random.default_rng(41), 21)
    hat, chk = path[:-1], path[1:].copy()
    chk[15] = 0.0  # degenerate, in the second block
    for fn in (w_eval, w_value_and_grad):
        with pytest.raises(DegenerateCurve):
            fn(hat, chk, W2, kind, STACK_M)
    with pytest.raises(InsufficientSamples):
        w_eval(hat, chk, W2, kind, 2 * STACK_ORDER)
    # an earlier failing segment raises first, as in one call per segment
    if kind.is_rat:
        chk[3] = reversed_coeffs(chk[3])
        with pytest.raises(NonPositiveQ):
            w_value_and_grad(hat, chk, W2, kind, STACK_M)
        with pytest.raises(DegenerateCurve):
            w_eval(hat, chk, W2, kind, STACK_M)  # inf on 3, then the floor on 15
    else:
        # speed 0.005 < epsilon / 2: the clipped lower bound vanishes there
        hat[3] = chk[3] = 0.005 * circle(order=STACK_ORDER).coeffs
        with pytest.warns(RuntimeWarning, match="twice the minimal speed"):
            with pytest.raises(NonPositiveLowerBound):
                w_eval(hat, chk, W2, kind, STACK_M)


def test_stack_shapes_are_checked():
    path = curve_stack(np.random.default_rng(42), 3)
    for hat, chk in ((path[:-1], path[1:, :-1]), (path[0], path[1]), (path[:0], path[:0])):
        with pytest.raises(ValueError):
            w_eval(hat, chk, W2, RAT, STACK_M)


@pytest.mark.parametrize("kind", STACK_KINDS, ids=kind_id)
def test_two_segment_stack_gives_the_midpoint_residual(kind):
    # W_{,2}[a, x] + W_{,1}[x, b] from one call on (stack[a, x], stack[x, b])
    a, x, b = curve_stack(np.random.default_rng(43), 3)
    gh, gc = w_grad(np.stack((a, x)), np.stack((x, b)), W2, kind, STACK_M)
    curves = [FourierCurve.from_coeffs(c) for c in (a, x, b)]
    two_calls = (
        w_grad(curves[0], curves[1], W2, kind, STACK_M)[1].coeffs
        + w_grad(curves[1], curves[2], W2, kind, STACK_M)[0].coeffs
    )
    scale = np.abs(two_calls).max()
    np.testing.assert_allclose(gc[0] + gh[1], two_calls, rtol=0.0, atol=1e-13 * scale)
