"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output on failure) and asserts the criterion.
"""

import math
import time

import mpmath
import numpy as np

from qlaplace import (
    Cosh,
    Cosine,
    Exponential,
    Gaussian,
    IdealGasModel,
    Monomial,
    OscillatorModel,
    QCosh,
    QCosine,
    QExponential,
    QGaussian,
    QParam,
    QSine,
    QSinh,
    Sine,
    Sinh,
    WidderConfig,
    catalog_transform,
    classical_post_widder,
    density_of_states,
    derivative_rule_check,
    forward_numeric,
    ideal_gas_partition,
    ideal_gas_partition_quadrature,
    integral_rule_diagnostic,
    kernel_pair_integral,
    limit_identity_check,
    q_poly,
    q_post_widder,
    qderivative_of_transform_check,
    qintegral_of_transform_check,
    roundtrip,
    scaling_check,
    series_invert,
    shift_kernel_factor,
    translation_check,
)
from pfq_oracle import pfq_series

Q_SET = (0.3, 0.6, 0.9)


def announce(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def catalog_families():
    qp = QParam(0.7)
    tight = 1e-8   # power/exponential families
    loose = 1e-6   # remaining hypergeometric families
    return [
        (Monomial(3), tight),
        (Exponential(0.8, 1), tight),
        (QExponential(qp, 0.8, -1), tight),
        (Gaussian(0.9), loose),
        (QGaussian(qp, 0.9), loose),
        (Cosine(1.1), loose),
        (Sine(1.1), loose),
        (QCosine(qp, 1.1), loose),
        (QSine(qp, 1.1), loose),
        (Cosh(0.7), loose),
        (Sinh(0.7), loose),
        (QCosh(qp, 0.7), loose),
        (QSinh(qp, 0.7), loose),
    ]


def test_criterion_1_forward_oracle_agreement():
    """Quadrature vs closed form for all 13 families, q in {0.3, 0.6, 0.9}."""
    start = time.time()
    worst = 0.0
    for qv in Q_SET:
        q = QParam(qv)
        for f, tol in catalog_families():
            F = catalog_transform(q, f, 80)
            s_lo = max(F.s_min, 0.4)
            for s in np.geomspace(s_lo, 8.0 * s_lo, 8):
                num = forward_numeric(q, f, float(s))
                cat = F.value(float(s))
                err = abs(num - cat) / abs(cat)
                worst = max(worst, err / tol)
                assert err <= tol, (f.label, qv, s, err)
    elapsed = time.time() - start
    announce(
        "criterion 1: forward-transform oracle agreement (13 families x 3 q x 8 s)",
        worst <= 1.0 and elapsed < 60.0,
        f"worst err/tol = {worst:.2e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_kernel_pair_identity():
    """Kernel-pair integral equals 1/((2-q)(s-s')) on 20 (q, s, s') triples."""
    rng_triples = []
    for qv in (0.3, 0.45, 0.6, 0.75, 0.9):
        for s, sp in ((1.0, 0.5), (2.0, 1.0), (5.0, 0.2), (1.3, 1.1)):
            rng_triples.append((qv, s, sp))
    assert len(rng_triples) == 20
    worst = 0.0
    for qv, s, sp in rng_triples:
        q = QParam(qv)
        val = kernel_pair_integral(q, s, sp)
        expected = 1.0 / ((2.0 - qv) * (s - sp))
        worst = max(worst, abs(val - expected) / expected)
    announce("criterion 2: kernel-pair identity on 20 triples", worst <= 1e-8, f"worst rel err {worst:.2e}")


def test_criterion_3_series_roundtrip():
    """Term-wise inversion of every catalog closed form, summed as the
    paper's pFq series, reproduces the independent Taylor coefficients to
    1e-10 for n <= 20; the library's own round trip stays inside the same
    bound."""
    worst = 0.0
    for qv in Q_SET:
        q = QParam(qv)
        for f, _ in catalog_families():
            rec = series_invert(q, pfq_series(q, f, 21)).coeffs
            ref = f.taylor_coefficients(len(rec) - 1)
            for n, (a_rec, a_ref) in enumerate(zip(rec, ref)):
                scale = max(abs(a_rec), abs(a_ref))
                err = abs(a_rec - a_ref) / scale if scale > 0.0 else 0.0
                worst = max(worst, err)
                assert err <= 1e-10, (f.label, qv, n)
            assert roundtrip(q, f, 21).max_coeff_rel_err <= 1e-10, (f.label, qv)
    announce("criterion 3: series roundtrip for all 13 families", worst <= 1e-10, f"worst coeff err {worst:.2e}")


def test_criterion_4_classical_post_widder():
    """F = 1/(s+1): k = 64 within 1% of e^-1, and O(1/k) halving."""
    oracle = lambda k, s: (-1.0) ** k * math.exp(math.lgamma(k + 1) - (k + 1) * math.log(s + 1.0))
    truth = math.exp(-1.0)
    errs = {k: abs(classical_post_widder(oracle, 1.0, k) - truth) / truth for k in (16, 32, 64)}
    ok = errs[64] <= 1e-2 and 0.4 <= errs[32] / errs[16] <= 0.6 and 0.4 <= errs[64] / errs[32] <= 0.6
    announce(
        "criterion 4: classical Post-Widder on 1/(s+1)",
        ok,
        f"err(64) = {errs[64]:.4f}, ratios {errs[32]/errs[16]:.3f}, {errs[64]/errs[32]:.3f}",
    )


def test_criterion_5_deformed_widder_power_law():
    """Single-power transforms: finite-k estimate matches
    t^(m-1) * Gamma(m+k) / (k^(m-1) Gamma(k+1)) to 1e-12 and converges."""
    worst = 0.0
    for qv in (0.5, 0.9):
        q = QParam(qv)
        for m in range(2, 7):
            F = catalog_transform(q, Monomial(m))
            cfg = WidderConfig((16, 32, 64), fixed_m=m, extrapolate=False)
            t = 1.3
            prev_gap = None
            for est in q_post_widder(q, F, t, cfg):
                factor = 1.0
                for j in range(1, m):
                    factor *= (est.k + j) / est.k
                expected = t ** (m - 1) * factor
                worst = max(worst, abs(est.value - expected) / expected)
                gap = abs(est.value - t ** (m - 1))
                if prev_gap is not None:
                    assert gap < prev_gap  # approaches the true power as k grows
                prev_gap = gap
    announce("criterion 5: deformed Widder power law (m = 2..6)", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_6_bridge_identities():
    """Pochhammer/product bridges, n <= 30, q in {0.3, 0.6, 0.9}, 1e-12."""
    worst = 0.0
    for qv in Q_SET:
        e = 1.0 - qv
        q1 = q_poly(2.0 - qv, 1)
        for n in range(31):
            lhs = float(mpmath.rf((3.0 - 2.0 * qv) / e, n)) * e**n
            rhs = q_poly(2.0 - qv, n + 1) / q1
            worst = max(worst, abs(lhs - rhs) / rhs)
            lhs2 = float(mpmath.rf((3.0 - 2.0 * qv) / (2.0 * e), n) * mpmath.rf((4.0 - 3.0 * qv) / (2.0 * e), n))
            rhs2 = q_poly(2.0 - qv, 2 * n + 1) / (4.0**n * e ** (2 * n) * q1)
            worst = max(worst, abs(lhs2 - rhs2) / rhs2)
    announce("criterion 6: Pochhammer product bridges", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_7_statmech():
    """Gas D=3,N=2 and oscillator D=1,N=3 at q in {0.6, 0.9}: analytic g(E)
    exact, q-independent, and the k = 64 numeric estimate within the known
    finite-k factor to 1e-10."""
    gas = IdealGasModel(3, 2)
    osc = OscillatorModel(1, 3)
    cfg = WidderConfig((64,), None, extrapolate=False)
    e_grid = [0.7, 1.9]
    worst = 0.0
    for model, m in ((gas, 3), (osc, 3)):
        exact_prefactor = math.exp(model.log_prefactor - math.lgamma(m))
        factor = (64 + 1) * (64 + 2) / 64**2
        samples_by_q = []
        for qv in (0.6, 0.9):
            dos = density_of_states(QParam(qv), model, e_grid, cfg)
            assert abs(dos.exponent - (m - 1)) == 0.0
            err_pref = abs(dos.prefactor - exact_prefactor) / exact_prefactor
            assert err_pref <= 1e-12
            for e, g in dos.samples:
                expected = dos.analytic(e) * factor
                worst = max(worst, abs(g - expected) / expected)
            samples_by_q.append([g for _, g in dos.samples])
        for a, b in zip(*samples_by_q):
            q_dep = abs(a - b) / abs(a)
            assert q_dep <= 1e-12
    announce("criterion 7: partition-function inversion (gas + oscillator)", worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_8_identity_suite():
    """Limit identity I, scaling, shift factorization, derivative rule (n=1),
    transform-derivative and transform-integral identities at 1e-6;
    integral-rule ratio s-independent at 1e-6; translation reported."""
    details = []
    for qv in (0.6, 0.9):
        q = QParam(qv)
        rep = limit_identity_check(q, Cosine(1.0), "I")
        assert rep.rel_err <= 1e-6, ("limit-I cosine", qv, rep.rel_err)
        rep = limit_identity_check(q, Monomial(2), "I")
        assert rep.rel_err <= 1e-6, ("limit-I power", qv, rep.rel_err)
        chk = scaling_check(q, Monomial(2), 2.0, 1.0)
        assert chk.rel_err <= 1e-6, ("scaling", qv, chk.rel_err)
        chk = scaling_check(q, Gaussian(1.0), 0.5, 2.0)
        assert chk.rel_err <= 1e-6, ("scaling gaussian", qv, chk.rel_err)
        chk = shift_kernel_factor(q, 2.0, 1.0, 0.2)
        assert chk.rel_err <= 1e-6, ("shift", qv, chk.rel_err)
        chk = derivative_rule_check(q, Monomial(2), 1, 1.0)
        assert chk.rel_err <= 1e-6, ("derivative rule", qv, chk.rel_err)
        chk = qderivative_of_transform_check(q, Monomial(2), 1, 1.5)
        assert chk.rel_err <= 1e-6, ("transform q-derivative", qv, chk.rel_err)
        chk = qintegral_of_transform_check(q, Monomial(3), 1.0)
        assert chk.rel_err <= 1e-6, ("transform q-integral", qv, chk.rel_err)
        scan = integral_rule_diagnostic(q, Monomial(2), [0.5, 1.0, 2.0, 4.0])
        assert scan.spread_rel <= 1e-6, ("integral rule spread", qv, scan.spread_rel)
        trans = translation_check(q, Monomial(2), 0.1, 1.0)
        details.append(f"q={qv}: integral-rule ratio {scan.ratio_mean:.6f}, delay ratio {trans.ratio_proof:.9f}")
    announce("criterion 8: transform identity suite", True, "; ".join(details))


def test_criterion_9_partition_cross_check():
    """Brute-force phase-space quadrature vs closed form, D=1, N=2."""
    model = IdealGasModel(1, 2)
    worst = 0.0
    for qv, beta in ((0.5, 1.0), (0.8, 1.7)):
        q = QParam(qv)
        brute = ideal_gas_partition_quadrature(q, model, beta)
        closed = ideal_gas_partition(q, model, beta)
        worst = max(worst, abs(brute - closed) / closed)
    announce("criterion 9: brute-force partition cross-check", worst <= 1e-6, f"worst rel err {worst:.2e}")
