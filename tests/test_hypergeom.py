"""pFq Taylor coefficients: frozen values, termination, symmetry, the sum against an
independent oracle, and error paths."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlaplace import DomainError
from qlaplace.hypergeom import pfq_term_coefficients


def direct_sum(upper, lower, z, n_terms=60):
    """Independent oracle: term-by-term summation from Pochhammer products."""
    total = 0.0
    for n in range(n_terms):
        num = 1.0
        for u in upper:
            for i in range(n):
                num *= u + i
        den = 1.0
        for v in lower:
            for i in range(n):
                den *= v + i
        total += num / den * z**n / math.factorial(n)
    return total


def coefficient_sum(upper, lower, z, n_max):
    return sum(c * z**n for n, c in enumerate(pfq_term_coefficients(upper, lower, n_max)))


class TestTermCoefficients:
    def test_exp_coefficients(self):
        coeffs = pfq_term_coefficients((), (), 3)
        assert coeffs == pytest.approx([1.0, 1.0, 0.5, 1.0 / 6.0], rel=1e-15)

    def test_binomial_coefficients(self):
        coeffs = pfq_term_coefficients((-2.0,), (), 3)
        assert coeffs == pytest.approx([1.0, -2.0, 1.0, 0.0], abs=1e-15)

    def test_0f1_coefficients(self):
        coeffs = pfq_term_coefficients((), (1.0,), 2)
        assert coeffs == pytest.approx([1.0, 1.0, 0.25], rel=1e-15)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            pfq_term_coefficients((), (), -1)

    def test_consistency_with_sum(self):
        upper, lower, z = (0.5, 1.0), (2.5,), 0.4
        assert coefficient_sum(upper, lower, z, 200) == pytest.approx(direct_sum(upper, lower, z), rel=1e-11)

    def test_agrees_with_direct_sum(self):
        cases = [
            ((1.0,), (3.4,), 0.45),
            ((0.5, 1.0), (2.7, 3.1), -0.8),
            ((1.0, 0.5, -2.5), (4.0, 4.5), 0.3),
        ]
        for upper, lower, z in cases:
            assert coefficient_sum(upper, lower, z, 59) == pytest.approx(direct_sum(upper, lower, z), rel=1e-11)

    def test_exp_series(self):
        assert coefficient_sum((), (), 1.0, 40) == pytest.approx(math.e, rel=1e-13)

    def test_1f1_oracle(self):
        # 1F1(1; 2; 1) = sum 1/(n+1)! = e - 1
        assert coefficient_sum((1.0,), (2.0,), 1.0, 40) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_terminating_polynomial(self):
        # 2F1(1, -2; 3; z) = 1 - 2z/3 + z^2/6, 17/24 at z = 1/2: every later coefficient is exactly 0
        coeffs = pfq_term_coefficients((1.0, -2.0), (3.0,), 6)
        assert coeffs[3:] == [0.0] * 4
        assert coefficient_sum((1.0, -2.0), (3.0,), 0.5, 6) == pytest.approx(17.0 / 24.0, rel=1e-14)

    def test_binomial_termination_outside_disk(self):
        # 1F0(-3;;z) = (1-z)^3 terminates, so |z| >= 1 is fine
        for z in (0.5, 2.0, -1.5):
            assert coefficient_sum((-3.0,), (), z, 10) == pytest.approx((1.0 - z) ** 3, rel=1e-13)

    def test_near_negative_integer_upper_terminates(self):
        # a parameter a few ulps from -3 snaps to exact termination
        assert pfq_term_coefficients((-3.0 + 4e-15,), (), 6)[4:] == [0.0, 0.0, 0.0]

    @given(
        a=st.floats(min_value=0.1, max_value=4.0),
        b=st.floats(min_value=0.1, max_value=4.0),
        c=st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_upper_permutation_symmetry(self, a, b, c):
        v1 = pfq_term_coefficients((a, b), (c,), 40)
        v2 = pfq_term_coefficients((b, a), (c,), 40)
        assert v1 == pytest.approx(v2, rel=1e-13, abs=1e-300)

    def test_bad_lower(self):
        with pytest.raises(DomainError, match="lower parameter 0.0"):
            pfq_term_coefficients((1.0,), (0.0,), 3)
        with pytest.raises(DomainError, match="lower parameter -3.0"):
            pfq_term_coefficients((1.0,), (-3.0,), 3)
