import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2, norm

from aecomm import channels, shiftmetrics
from aecomm.rng import substream

positive_variance = st.floats(min_value=1e-3, max_value=1e3)


def overlap_1d_by_quadrature(s2a, s2b):
    """Independent route: numerically integrate min of the two densities."""
    sa, sb = np.sqrt(s2a), np.sqrt(s2b)

    def integrand(x):
        return min(norm.pdf(x, scale=sa), norm.pdf(x, scale=sb))

    # split at the analytic crossover to keep quad honest about the kink
    lo, hi = sorted((s2a, s2b))
    if lo == hi:
        return 1.0
    x_star = np.sqrt(np.log(hi / lo) / (1 / lo - 1 / hi))
    total = 0.0
    for a, b in ((-np.inf, -x_star), (-x_star, x_star), (x_star, np.inf)):
        piece, _ = quad(integrand, a, b)
        total += piece
    return total


def kl_1d_by_quadrature(s2a, s2b):
    sa, sb = np.sqrt(s2a), np.sqrt(s2b)

    def integrand(x):
        p = norm.pdf(x, scale=sa)
        return p * (norm.logpdf(x, scale=sa) - norm.logpdf(x, scale=sb))

    value, _ = quad(integrand, -np.inf, np.inf)
    return value


def overlap_1d(s2a, s2b):
    return shiftmetrics.overlap_same_mean_isotropic(s2a, s2b, 1)


class TestCdfs:
    def test_chi_square_cdf_against_scipy_stats(self):
        for dof in (1, 2, 7, 10):
            x = np.linspace(0.01, 30, 40)
            assert np.allclose(
                shiftmetrics.chi_square_cdf(x, dof), chi2.cdf(x, dof), atol=1e-12
            )

    def test_chi_square_domain_checks(self):
        with pytest.raises(ValueError):
            shiftmetrics.chi_square_cdf(-0.1, 3)
        with pytest.raises(ValueError):
            shiftmetrics.chi_square_cdf(1.0, 0)


class TestOverlap1d:
    """The tabulated per-dimension overlap: the isotropic form at d = 1."""

    def test_equal_variances_full_overlap(self):
        assert overlap_1d(0.7, 0.7) == 1.0

    def test_matches_quadrature(self):
        for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
            got = overlap_1d(1.0, ratio)
            want = overlap_1d_by_quadrature(1.0, ratio)
            assert got == pytest.approx(want, abs=1e-10)

    def test_symmetric(self):
        a = overlap_1d(0.3, 2.1)
        b = overlap_1d(2.1, 0.3)
        assert a == b

    def test_scale_invariant(self):
        a = overlap_1d(1.0, 4.0)
        b = overlap_1d(0.25, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            overlap_1d(0.0, 1.0)
        with pytest.raises(ValueError):
            overlap_1d(1.0, -2.0)

    @given(positive_variance, positive_variance)
    @example(1e-3, 0.0010000000000000002)  # distinct variances, equal logs
    @settings(max_examples=60)
    def test_in_unit_interval_and_symmetric(self, s2a, s2b):
        value = overlap_1d(s2a, s2b)
        assert 0.0 < value <= 1.0
        assert value == overlap_1d(s2b, s2a)

    def test_decreases_with_ratio(self):
        ratios = np.array([1.0, 1.5, 3.0, 8.0, 30.0, 200.0])
        values = [overlap_1d(1.0, r) for r in ratios]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestOverlapIsotropic:
    def test_matches_monte_carlo(self):
        for dim in (2, 7):
            for ratio in (2.0, 10.0):
                analytic = shiftmetrics.overlap_same_mean_isotropic(1.0, ratio, dim)
                mc = shiftmetrics.overlap_monte_carlo(
                    1.0, ratio, dim, 200_000, substream(0, "mc", dim, f"{ratio}")
                )
                assert abs(analytic - mc.estimate) < 3.5 * mc.std_error

    def test_overlap_shrinks_with_dimension(self):
        values = [
            shiftmetrics.overlap_same_mean_isotropic(1.0, 3.0, d) for d in (1, 2, 5, 10)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(positive_variance, positive_variance, st.integers(1, 12))
    @example(1e-3, 0.0010000000000000002, 1)  # distinct variances, equal logs
    @settings(max_examples=60)
    def test_in_unit_interval(self, s2a, s2b, dim):
        value = shiftmetrics.overlap_same_mean_isotropic(s2a, s2b, dim)
        assert 0.0 < value <= 1.0


class TestKl:
    def test_zero_iff_equal(self):
        assert shiftmetrics.kl_same_mean(0.9, 0.9) == 0.0
        assert shiftmetrics.kl_same_mean(0.9, 1.1) > 0.0

    def test_matches_quadrature(self):
        for s2a, s2b in ((1.0, 2.0), (2.0, 1.0), (0.5, 5.0)):
            got = shiftmetrics.kl_same_mean(s2a, s2b)
            want = kl_1d_by_quadrature(s2a, s2b)
            assert got == pytest.approx(want, abs=1e-8)

    def test_dimension_scales_linearly(self):
        one = shiftmetrics.kl_same_mean(1.0, 3.0, 1)
        seven = shiftmetrics.kl_same_mean(1.0, 3.0, 7)
        assert seven == pytest.approx(7 * one, rel=1e-12)

    def test_asymmetric(self):
        assert shiftmetrics.kl_same_mean(1.0, 4.0) != shiftmetrics.kl_same_mean(4.0, 1.0)

    @given(positive_variance, positive_variance)
    @settings(max_examples=60)
    def test_nonnegative(self, s2a, s2b):
        assert shiftmetrics.kl_same_mean(s2a, s2b) >= 0.0


class TestMonteCarlo:
    def test_deterministic_given_stream(self):
        a = shiftmetrics.overlap_monte_carlo(1.0, 2.0, 3, 10_000, substream(1, "mc"))
        b = shiftmetrics.overlap_monte_carlo(1.0, 2.0, 3, 10_000, substream(1, "mc"))
        assert a == b

    def test_estimate_in_unit_interval(self):
        mc = shiftmetrics.overlap_monte_carlo(1.0, 50.0, 7, 50_000, substream(2, "mc"))
        assert 0.0 <= mc.estimate <= 1.0
        assert mc.std_error > 0.0
        assert mc.samples == 50_000

    def test_extreme_ratio_stable(self):
        mc = shiftmetrics.overlap_monte_carlo(1.0, 1e6, 7, 20_000, substream(3, "mc"))
        analytic = shiftmetrics.overlap_same_mean_isotropic(1.0, 1e6, 7)
        assert np.isfinite(mc.estimate)
        assert abs(mc.estimate - analytic) < max(4 * mc.std_error, 1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shiftmetrics.overlap_monte_carlo(1.0, 1.0, 0, 100, substream(4, "mc"))
        with pytest.raises(ValueError):
            shiftmetrics.overlap_monte_carlo(1.0, 1.0, 1, 0, substream(5, "mc"))


INF = float("inf")


# unchecked, an infinite variance fails in the closed forms' arithmetic
# (inf - inf, inf * 0) or gives a KL of inf
@pytest.mark.parametrize("call", [
    lambda: shiftmetrics.overlap_same_mean_isotropic(INF, 1.0, 1),
    lambda: shiftmetrics.overlap_same_mean_isotropic(1.0, INF, 7),
    lambda: shiftmetrics.kl_same_mean(INF, 1.0),
    lambda: shiftmetrics.kl_same_mean(1.0, INF),
    lambda: shiftmetrics.overlap_monte_carlo(1.0, INF, 1, 100,
                                             substream(6, "mc")),
], ids=["overlap-a", "overlap-b-7d", "kl-a", "kl-b", "monte-carlo-b"])
def test_infinite_variance_rejected(call):
    with pytest.raises(ValueError,
                       match=r"positive and finite, got sigma2_a=.*inf"):
        call()


class TestCompareReceivedDistributions:
    def test_equal_points_full_overlap(self):
        result = shiftmetrics.compare_received_distributions(7.0, 7.0, 4 / 7)
        assert result.overlap == 1.0
        assert result.kl_nats == 0.0

    def test_fields_populated(self):
        result = shiftmetrics.compare_received_distributions(7.0, 0, 4 / 7)
        assert repr(result.test_ebn0_db) == "0.0"
        assert 0 < result.overlap < 1
        assert result.kl_nats > 0

    def test_overlap_improves_toward_train_point(self):
        train = 7.0
        overlaps = [
            shiftmetrics.compare_received_distributions(train, db, 4 / 7).overlap
            for db in (-4.0, 0.0, 5.0, 8.0)
        ]
        assert all(a < b for a, b in zip(overlaps, overlaps[1:]))

    def test_dimension_seven_variant(self):
        result = shiftmetrics.compare_received_distributions(7.0, 0.0, 4 / 7, dimension=7)
        one = shiftmetrics.compare_received_distributions(7.0, 0.0, 4 / 7)
        assert result.overlap < one.overlap
        assert result.kl_nats == pytest.approx(7 * one.kl_nats, rel=1e-12)

    @given(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0))
    # each mass rounds toward 1; their sum read 1.0000000000000002
    @example(0.0, -3.3553257293909505e-16)
    @settings(max_examples=200)
    def test_any_accepted_points_stay_in_range(self, train_db, test_db):
        # variances from about 1e-300 to 1e300: their ratio overflows or
        # goes subnormal, the log-variance forms do not
        equal = (channels.noise_variance(train_db, 4 / 7)
                 == channels.noise_variance(test_db, 4 / 7))
        for dim in (1, 7):
            there, back, same = (
                shiftmetrics.compare_received_distributions(a, b, 4 / 7, dim)
                for a, b in ((train_db, test_db), (test_db, train_db),
                             (train_db, train_db)))
            assert 0.0 <= there.overlap <= 1.0
            assert there.overlap == back.overlap
            assert same.overlap == 1.0
            if equal:
                assert there.overlap == 1.0
            for kl in (there.kl_nats, back.kl_nats, same.kl_nats):
                assert kl >= 0.0 and not np.isnan(kl)
