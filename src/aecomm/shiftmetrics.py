"""Distribution-shift metrics between received-signal distributions.

Training at one Eb/N0 and testing at another makes the received signal
y ~ N(x, sigma^2 I) differ only in its noise variance.  The shift between
the two same-mean Gaussians is quantified by the overlapping coefficient
(the shared probability mass, integral of min(p, q)) and by the KL
divergence.  One closed form covers any dimension d; the tabulated value is
its per-dimension case d = 1 (chi-square with one degree of freedom), and a
Monte Carlo estimator is the independent check on it.  Both closed forms
work from the log variances, so they hold at any two accepted Eb/N0 points.
"""

from dataclasses import dataclass

import numpy as np

from . import channels


def chi_square_cdf(x, dof: int):
    """Chi-square CDF via the regularized lower incomplete gamma function."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    from scipy.special import gammainc

    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square CDF is defined for x >= 0")
    out = gammainc(dof / 2.0, x / 2.0)
    return out if out.ndim else float(out)


def _check(sigma2_a, sigma2_b, dimension):
    if not (0 < sigma2_a < np.inf and 0 < sigma2_b < np.inf):
        raise ValueError(f"variances must be positive and finite, got "
                         f"sigma2_a={sigma2_a}, sigma2_b={sigma2_b}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")


def overlap_same_mean_isotropic(sigma2_a: float, sigma2_b: float, dimension: int) -> float:
    """Overlap of two zero-mean isotropic Gaussians in ``dimension`` dims.

    The density ratio depends only on the radius, so the shared mass follows
    from the chi-square law of r^2/sigma^2 at the crossover radius r*.  With
    t = ln(hi/lo) for variances lo < hi, r*^2/hi = d t e^-t / (1 - e^-t) and
    r*^2/lo = d t / (1 - e^-t); neither overflows.
    """
    _check(sigma2_a, sigma2_b, dimension)
    if sigma2_a == sigma2_b:
        return 1.0
    t = abs(np.log(sigma2_a) - np.log(sigma2_b))
    gap = -np.expm1(-t)  # 1 - lo/hi
    wide_inside = chi_square_cdf(dimension * t * np.exp(-t) / gap, dimension)
    narrow_outside = 1.0 - chi_square_cdf(dimension * t / gap, dimension)
    return float(wide_inside + narrow_outside)


def kl_same_mean(sigma2_a: float, sigma2_b: float, dimension: int = 1) -> float:
    """KL(N(0, a I_d) || N(0, b I_d)) = d/2 [a/b - 1 + ln(b/a)] in nats,
    as d/2 [expm1(s) - s] with s = ln a - ln b; inf past the float range."""
    _check(sigma2_a, sigma2_b, dimension)
    s = np.log(sigma2_a) - np.log(sigma2_b)
    with np.errstate(over="ignore"):
        return float(0.5 * dimension * (np.expm1(s) - s))


@dataclass(frozen=True)
class MonteCarloOverlap:
    estimate: float
    std_error: float
    samples: int


def overlap_monte_carlo(
    sigma2_a: float,
    sigma2_b: float,
    dimension: int,
    samples: int,
    rng: np.random.Generator,
) -> MonteCarloOverlap:
    """Estimate the overlap by sampling the mixture (p + q) / 2.

    Under the mixture, E[2 min(p,q) / (p+q)] = integral of min(p, q); the
    integrand equals 2 / (1 + exp|log p - log q|), which is computed from
    log densities so extreme variance ratios stay stable.
    """
    _check(sigma2_a, sigma2_b, dimension)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    pick_a = rng.random(samples) < 0.5
    sigma = np.where(pick_a, np.sqrt(sigma2_a), np.sqrt(sigma2_b))
    draws = sigma[:, None] * rng.standard_normal((samples, dimension))
    r2 = np.einsum("ij,ij->i", draws, draws)
    log_ratio = 0.5 * dimension * np.log(sigma2_b / sigma2_a) + 0.5 * r2 * (
        1.0 / sigma2_b - 1.0 / sigma2_a
    )
    # 2 / (1 + e^|t|) written with a negative exponent so large |t|
    # underflows to the correct 0 instead of overflowing
    damp = np.exp(-np.abs(log_ratio))
    values = 2.0 * damp / (1.0 + damp)
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MonteCarloOverlap(estimate, std_error, samples)


@dataclass(frozen=True)
class OverlapResult:
    """Shift from a train-time to a test-time received distribution."""

    test_ebn0_db: float
    overlap: float
    kl_nats: float


def compare_received_distributions(
    train_ebn0_db: float,
    test_ebn0_db: float,
    rate: float,
    dimension: int = 1,
) -> OverlapResult:
    """Overlap and KL between the received distributions at two operating
    points of the same rate-R system, both from the isotropic closed forms;
    ``dimension=1`` is the per-dimension (tabulated) convention."""
    s2_train = channels.noise_variance(train_ebn0_db, rate)
    s2_test = channels.noise_variance(test_ebn0_db, rate)
    overlap = overlap_same_mean_isotropic(s2_train, s2_test, dimension)
    kl = kl_same_mean(s2_train, s2_test, dimension)
    return OverlapResult(float(test_ebn0_db), overlap, kl)
