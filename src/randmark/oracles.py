"""Independent validators for every analytical quantity in stats and bounds.

Each oracle recomputes a target value by a structurally different route:
exact rational convolution instead of closed-form coefficient sums, full
subset enumeration instead of dynamic programming, and seeded Monte Carlo
with reported standard errors. Test assertions against Monte Carlo results
use the nominal value plus at least three standard errors.

Beyond the exact-integer cap, exact_binomial_tail uses scipy.special's
binomial CDF, imported at that call rather than with this module, so that
`import randmark` does not pay for scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import chernoff_gamma, collision_estimate, hoeffding_epsilon, poisson_binomial_cdf

# Caps keeping the exact routes affordable.
ENUMERATION_CAP = 20
EXACT_INTEGER_CAP = 64


@dataclass
class OracleResult:
    value: float
    method: str  # exact-enumeration | exact-integer | monte-carlo | incomplete-beta
    trials: int | None = None
    standard_error: float | None = None

    def __post_init__(self):
        if (self.method == "monte-carlo") != (self.standard_error is not None):
            raise ValueError("standard_error must be present exactly for monte-carlo")


def exact_binomial_tail(n: int, tau: int, r: float) -> OracleResult:
    """P(at most tau mismatches out of n bits) with per-bit match
    probability r.

    For n <= 64 the computation is an exact rational convolution over the
    bit count, in integer arithmetic over the rational representation of r.
    Beyond that it is scipy's binomial CDF, bdtr(tau, n, 1 - r), which goes
    through the regularized incomplete beta function, and the method says so.
    """
    if not 0 <= tau <= n:
        raise ValueError("tau must lie in [0, n]")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if n > EXACT_INTEGER_CAP:
        # imported here, not with the module: scipy.special more than doubles randmark's start-up
        from scipy.special import bdtr

        return OracleResult(value=float(bdtr(tau, n, 1.0 - r)), method="incomplete-beta")
    return OracleResult(value=_integer_tail(n, tau, r), method="exact-integer")


def _integer_tail(n: int, tau: int, r: float) -> float:
    """P(at most tau mismatches) by exact rational convolution."""
    frac = Fraction(r)
    num, den = frac.numerator, frac.denominator
    mismatch_num = den - num  # numerator of (1 - r) over the same denominator
    # dist[j] carries the numerator of P(j mismatches) over den**i after i bits.
    dist = [1]
    for _ in range(n):
        nxt = [0] * (len(dist) + 1)
        for j, mass in enumerate(dist):
            nxt[j] += mass * num
            nxt[j + 1] += mass * mismatch_num
        dist = nxt
    total = sum(dist[: tau + 1])
    return float(Fraction(total, den**n))


def brute_force_poisson_binomial(probs, threshold: int, tail: str) -> OracleResult:
    """Exact tail of a Bernoulli sum by enumerating all 2^N outcomes.

    Refuses N > 20. tail="below" gives P(S < threshold), "above" gives
    P(S > threshold), both strict.
    """
    p = np.asarray(list(probs), dtype=np.float64)
    n = p.size
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration refused for N = {n} > {ENUMERATION_CAP}")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    if tail not in ("below", "above"):
        raise ValueError("tail must be 'below' or 'above'")
    codes = np.arange(2**n, dtype=np.uint32)
    outcomes = (codes[:, None] >> np.arange(n)[None, :]) & 1  # (2^N, N)
    weights = np.where(outcomes == 1, p[None, :], 1.0 - p[None, :]).prod(axis=1)
    sums = outcomes.sum(axis=1)
    if tail == "below":
        mass = weights[sums < threshold].sum()
    else:
        mass = weights[sums > threshold].sum()
    return OracleResult(value=float(mass), method="exact-enumeration")


def monte_carlo_bernoulli_sum(probs, threshold: int, trials: int, seed: int) -> OracleResult:
    """Empirical P(S < threshold) over seeded Bernoulli-sum draws, with the
    binomial standard error of the estimate."""
    if trials < 10_000:
        raise ValueError("need at least 10^4 trials")
    p = np.asarray(list(probs), dtype=np.float64)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        draws = rng.random((b, p.size)) < p[None, :]
        hits += int((draws.sum(axis=1) < threshold).sum())
        done += b
    rate = hits / trials
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / trials)
    return OracleResult(
        value=rate, method="monte-carlo", trials=trials, standard_error=se
    )


def coverage_simulation(
    true_p: float,
    trials_per_rep: int,
    level: float,
    reps: int,
    seed: int,
    side: str = "lower",
) -> OracleResult:
    """Fraction of replications in which the one-sided interval excludes
    the true proportion.

    Each replication draws one binomial count at true_p, forms the bound at
    the given level with collision_estimate, the bound report's own
    Clopper-Pearson limits, and scores a miss when the bound lands on the
    wrong side of true_p. The exact construction guarantees a miss rate at
    most the level.
    """
    if reps < 1_000:
        raise ValueError("need at least 10^3 replications")
    if trials_per_rep < 1:
        raise ValueError(f"need at least 1 trial per replication, got {trials_per_rep} trials")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    rng = np.random.default_rng(seed)
    counts = rng.binomial(trials_per_rep, true_p, size=reps)
    # The bound depends only on the observed count; compute once per count.
    unique, weights = np.unique(counts, return_counts=True)
    lower, upper = collision_estimate(unique, trials_per_rep, level)
    missed = lower > true_p if side == "lower" else upper < true_p
    rate = int(weights[missed].sum()) / reps
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / reps)
    return OracleResult(value=rate, method="monte-carlo", trials=reps, standard_error=se)


@dataclass
class LemmaSimulationResult:
    """Replication accounting for the Chernoff-Hoeffding bound check.

    Inapplicable replications (the plug-in fell at or below the threshold
    ratio) are counted separately and never as passes; the violation rate
    is over all replications, matching the 1 - delta statement.
    """

    violation_rate: float
    violations: int
    applicable: int
    inapplicable: int
    reps: int
    standard_error: float


def lemma_validity_simulation(
    probs, delta: float, r_bar: int, reps: int, seed: int
) -> LemmaSimulationResult:
    """Empirical failure rate of the bound gamma(p_hat - eps) >= P(S < r_bar).

    The true tail comes from the exact convolution; each replication draws
    one realization of the Bernoulli sum to form p_hat, applies the bound
    when its precondition holds, and scores a violation when the true tail
    exceeds it.
    """
    if reps < 1_000:
        raise ValueError("need at least 10^3 replications")
    p = np.asarray(list(probs), dtype=np.float64)
    n = p.size
    if n == 0 or not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    mean_p = float(p.mean())
    if not r_bar < n * mean_p:
        raise ValueError("need r_bar < N * mean(p) for the bound to apply")
    true_tail = poisson_binomial_cdf(p, r_bar, "below")
    eps = hoeffding_epsilon(delta, n)
    rng = np.random.default_rng(seed)
    draws = rng.random((reps, n)) < p[None, :]
    counts = draws.sum(axis=1)

    ratio = r_bar / n
    violations = 0
    inapplicable = 0
    for count in np.unique(counts):
        weight = int((counts == count).sum())
        p_eff = count / n - eps
        if p_eff <= ratio or p_eff >= 1.0:
            inapplicable += weight
            continue
        h = chernoff_gamma(p_eff, r_bar, n)
        if true_tail > h:
            violations += weight
    rate = violations / reps
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / reps)
    return LemmaSimulationResult(
        violation_rate=rate,
        violations=violations,
        applicable=reps - inapplicable,
        inapplicable=inapplicable,
        reps=reps,
        standard_error=se,
    )
