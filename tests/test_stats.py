import math

import pytest

from dron.errors import UsageError
from dron.stats import (
    mean_confidence_halfwidth,
    paired_ttest,
    regularized_incomplete_beta,
    student_t_two_tailed,
)


def t_density(x, df):
    return (
        math.gamma((df + 1) / 2)
        / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        * (1 + x * x / df) ** (-(df + 1) / 2)
    )


def two_tailed_p_by_quadrature(t, df, panels=20_000):
    """Numeric-integration oracle: Simpson's rule on the substitution
    x = tan(theta), which maps the infinite tail to a finite interval."""
    t = abs(t)

    def integrand(theta):
        x = math.tan(theta)
        return t_density(x, df) * (1.0 + x * x)

    # at theta = pi/2 the integrand tends to 1/pi for df=1 and to 0 for df>1
    top = 1.0 / math.pi if df == 1 else 0.0
    lo, hi = math.atan(t), math.pi / 2
    h = (hi - lo) / panels
    total = integrand(lo) + top
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * integrand(lo + i * h)
    return 2 * total * h / 3


FIXED_CASES = [
    (0.5, 1), (1.0, 2), (3.4641016151377544, 2), (2.776, 4), (1.96, 30),
]


class TestStudentT:
    @pytest.mark.parametrize("t,df", FIXED_CASES)
    def test_matches_quadrature_oracle(self, t, df):
        assert abs(student_t_two_tailed(t, df) - two_tailed_p_by_quadrature(t, df)) <= 1e-3

    def test_t_zero_gives_one(self):
        assert student_t_two_tailed(0.0, 5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert student_t_two_tailed(-2.0, 7) == pytest.approx(student_t_two_tailed(2.0, 7))

    def test_known_value(self):
        # differences [1,2,3]: t = 2*sqrt(3) = 3.4641, df = 2, p ~ 0.0742
        assert student_t_two_tailed(3.4641016151377544, 2) == pytest.approx(0.0742, abs=5e-4)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.35, 0.8):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        val = regularized_incomplete_beta(2.5, 4.0, 0.3)
        assert val == pytest.approx(1.0 - regularized_incomplete_beta(4.0, 2.5, 0.7), abs=1e-12)


class TestPairedTTest:
    def test_identical_series(self):
        result = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0 and result.p == 1.0 and result.degenerate

    def test_frozen_example(self):
        result = paired_ttest([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])  # diffs 1, 2, 3
        assert result.t == pytest.approx(3.4641, abs=1e-4)
        assert result.df == 2
        assert result.p == pytest.approx(0.0742, abs=5e-4)

    def test_constant_nonzero_differences(self):
        result = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert math.isinf(result.t) and result.p == 0.0 and result.degenerate

    def test_sign_carries(self):
        result = paired_ttest([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert result.t == pytest.approx(-3.4641, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(UsageError, match=r"equal lengths, got 1 and 2$"):
            paired_ttest([1.0], [1.0, 2.0])
        with pytest.raises(UsageError, match=r"equal lengths, got 3 and 2$"):
            paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(UsageError):
            paired_ttest([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, bad):
        with pytest.raises(UsageError, match=r"must be finite, pair 2 is"):
            paired_ttest([1.0, bad, 3.0], [0.5, 1.0, 2.5])
        with pytest.raises(UsageError, match=r"must be finite, pair 3 is"):
            paired_ttest([1.0, 2.0, 3.0], [0.5, 1.0, bad])


class TestConfidenceHalfwidth:
    def test_hand_computed_triple(self):
        # values [0.5, 0.6, 0.7]: sd = 0.1, stderr = 0.1/sqrt(3)
        expected = 1.645 * 0.1 / math.sqrt(3)
        assert mean_confidence_halfwidth([0.5, 0.6, 0.7]) == pytest.approx(expected, abs=1e-12)

    def test_single_seed_degenerates(self):
        assert mean_confidence_halfwidth([0.42]) == 0.0
