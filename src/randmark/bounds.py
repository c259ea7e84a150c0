"""Probabilistic guarantees for the detection rate.

Three layers of machinery:

1. Exact one-sided Clopper-Pearson limits on per-trigger bit-collision
   probabilities, estimated from M sampled models (functional copies on one
   side, independent models on the other), each at level alpha/N so the
   union over triggers fails with probability at most alpha.
2. Exact Poisson-binomial tails over the N per-trigger detection events,
   giving an upper bound p_omega on the probability a functional copy's
   detection rate falls below R_bar, and p_xi on the probability an
   independent model's rate exceeds R_under.
3. Chernoff/Hoeffding closed forms: gamma(p) bounds the lower tail of a
   Bernoulli sum through its mean parameter alone, and a Hoeffding margin
   epsilon converts one observed detection count into a high-confidence
   plug-in for that mean.

The Clopper-Pearson limits are beta quantiles from scipy.special, which is
imported when the first limit is computed, not with this module: it takes
more than half of `import randmark`, and most randmark commands compute no
bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .stats import fpr_binomial


def collision_estimate(matches, trials, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-sided Clopper-Pearson limits, both sides, for every trigger
    of one population: (N,) lower and upper limits from (N,) match counts
    out of their trial counts, at the per-trigger level (alpha / N under the
    union-bound budget).

    The lower limit is the largest p_l with P(Bin(trials, p_l) >= matches)
    <= level, so P(true p < p_l) <= level; the upper limit is the mirror
    image. Both come from the beta-quantile inversion of the binomial tail.
    Each limit depends only on its own count and trial count."""
    matches = np.asarray(matches, dtype=np.int64)
    trials = np.broadcast_to(np.asarray(trials, dtype=np.int64), matches.shape)
    if not ((matches >= 0) & (matches <= trials)).all():
        raise ValueError("matches must lie in [0, trials]")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly in (0, 1)")
    # imported at the first bound: loading scipy.special at `import randmark`
    # more than doubles the start-up time of every randmark command
    from scipy.special import betaincinv

    lower = np.zeros(matches.shape)
    some = matches > 0
    lower[some] = betaincinv(matches[some], trials[some] - matches[some] + 1, level)
    upper = np.ones(matches.shape)
    short = matches < trials
    upper[short] = betaincinv(matches[short] + 1, trials[short] - matches[short], 1.0 - level)
    return lower, upper


def poisson_binomial_cdf(probs, threshold: int, tail: str) -> float:
    """Exact tail of a sum of independent Bernoulli variables with the
    given success probabilities: P(S < threshold) for tail="below",
    P(S > threshold) for tail="above" (both strict).

    Computed by convolution over the count distribution; equal to the
    exponential sum over subsets, at polynomial cost.
    """
    p = np.asarray(list(probs), dtype=np.float64)
    n = p.size
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities must lie in [0, 1]")
    if not 0 <= threshold <= n:
        raise ValueError("threshold must lie in [0, N]")
    if tail not in ("below", "above"):
        raise ValueError("tail must be 'below' or 'above'")
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for i, pi in enumerate(p):
        dist[1 : i + 2] = dist[1 : i + 2] * (1.0 - pi) + dist[: i + 1] * pi
        dist[0] *= 1.0 - pi
    if tail == "below":
        return float(dist[:threshold].sum())
    return float(dist[threshold + 1 :].sum())


def detection_rate_bounds(
    lower, upper, n: int, tau: int, r_bar: int, r_under: int
) -> tuple[float, float]:
    """(p_omega, p_xi): upper bounds on missing a functional copy and on
    flagging an independent model.

    `lower` holds each trigger's lower per-bit limit l(x) from the omega
    population and `upper` its upper limit u(x) from the xi population, as
    (N,) arrays in one trigger order. Each passes through the binomial
    per-image tail fpr_binomial (the bridge), which is non-decreasing in the
    per-bit rate, so a lower limit gives a lower per-trigger detection
    probability and an upper limit an upper one. p_omega = P(S < r_bar) for
    the Poisson-binomial S of the lower probabilities; p_xi = P(S > r_under)
    for that of the upper ones.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.ndim != 1 or lower.size == 0 or lower.shape != upper.shape:
        raise ValueError("need omega and xi limits for the same, non-empty set of triggers")
    if not 0 < r_under < r_bar <= lower.size:
        raise ValueError("need 0 < r_under < r_bar <= number of triggers")
    lower_probs = [fpr_binomial(r, n, tau) for r in lower.tolist()]
    upper_probs = [fpr_binomial(r, n, tau) for r in upper.tolist()]
    p_omega = poisson_binomial_cdf(lower_probs, r_bar, "below")
    p_xi = poisson_binomial_cdf(upper_probs, r_under, "above")
    return p_omega, p_xi


def hoeffding_epsilon(delta: float, n_count: int) -> float:
    """Concentration margin sqrt(ln(1/delta) / (2 * n_count)) for the mean
    of n_count Bernoulli observations."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if n_count < 1:
        raise ValueError("n_count must be positive")
    return math.sqrt(math.log(1.0 / delta) / (2.0 * n_count))


def _gamma_log(p: float, d: float, n_count: int) -> float:
    """log of (N p / d)^d * (N (1 - p) / (N - d))^(N - d)."""
    return d * (math.log(n_count) + math.log(p) - math.log(d)) + (n_count - d) * (
        math.log(n_count) + math.log1p(-p) - math.log(n_count - d)
    )


def chernoff_gamma(p: float, d: int, n_count: int) -> float:
    """Closed-form Chernoff bound on the lower tail P(S < d) of any sum of
    n_count independent Bernoulli variables whose mean parameter is p.

    Valid only for d < n_count * p (the optimizing tilt exists there);
    equals 1 exactly at p = d / n_count and is strictly decreasing in p
    beyond it. Evaluated in the log domain.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly in (0, 1)")
    if not 0 < d < n_count:
        raise ValueError("d must lie strictly between 0 and N")
    ratio = d / n_count
    if p == ratio:
        # Global maximum of the form; a degenerate but valid bound.
        return 1.0
    if p < ratio:
        raise ValueError(
            f"bound invalid: requires d < N*p, got d={d}, N*p={n_count * p:.6g}"
        )
    return math.exp(_gamma_log(p, d, n_count))


@dataclass
class LemmaBounds:
    """Chernoff-Hoeffding bounds from one observed detection count per
    population. A side that fails its applicability condition reports None
    plus the reason instead of a number."""

    h_minus: float | None
    h_plus: float | None
    epsilon: float
    minus_reason: str | None = None
    plus_reason: str | None = None


def lemma_bounds(
    p_hat: float,
    q_hat: float,
    delta: float,
    r_bar: int,
    r_under: int,
    n_count: int,
) -> LemmaBounds:
    """Bounds holding with probability at least 1 - delta over the sampling
    of the observed rates.

    h_minus = gamma(p_hat - eps) bounds P(detection count < r_bar) for
    functional copies, needing p_hat - eps > r_bar / N. h_plus is the
    upper-tail mirror at q_hat + eps against r_under, needing
    q_hat + eps < r_under / N.
    """
    if not 0.0 <= p_hat <= 1.0 or not 0.0 <= q_hat <= 1.0:
        raise ValueError("observed rates must lie in [0, 1]")
    if not 0 < r_under < r_bar <= n_count:
        raise ValueError("need 0 < r_under < r_bar <= N")
    eps = hoeffding_epsilon(delta, n_count)

    h_minus = None
    minus_reason = None
    p_eff = p_hat - eps
    if p_eff <= r_bar / n_count:
        minus_reason = (
            f"p_hat - eps = {p_eff:.6g} is not above r_bar/N = {r_bar / n_count:.6g}"
        )
    elif p_eff >= 1.0:
        minus_reason = "p_hat - eps reached 1; tail is zero and the form degenerates"
    else:
        h_minus = chernoff_gamma(p_eff, r_bar, n_count)

    h_plus = None
    plus_reason = None
    q_eff = q_hat + eps
    if q_eff >= r_under / n_count:
        plus_reason = (
            f"q_hat + eps = {q_eff:.6g} is not below r_under/N = {r_under / n_count:.6g}"
        )
    elif q_eff <= 0.0:
        plus_reason = "q_hat + eps reached 0; tail is zero and the form degenerates"
    else:
        # Upper tail via the complement: P(S > r_under) for mean q equals the
        # lower tail of the flipped sum, and the closed form is symmetric.
        # chernoff_gamma rejects this mirrored q < d/N form, and evaluating
        # it as chernoff_gamma(1 - q, N - d, N) would change the last bits.
        h_plus = math.exp(_gamma_log(q_eff, r_under, n_count))

    return LemmaBounds(
        h_minus=h_minus,
        h_plus=h_plus,
        epsilon=eps,
        minus_reason=minus_reason,
        plus_reason=plus_reason,
    )


@dataclass
class BoundReport:
    """Everything the bound pipeline produces for one run."""

    alpha: float
    delta: float
    n_triggers: int
    n: int
    tau: int
    r_bar: int
    r_under: int
    lower_l: list[float]
    upper_u: list[float]
    p_omega: float
    p_xi: float
    lemma: LemmaBounds
    p_hat: float
    q_hat: float

    def __post_init__(self):
        if not 0 < self.r_under < self.r_bar <= self.n_triggers:
            raise ValueError("need 0 < r_under < r_bar <= N")
        for value in (self.p_omega, self.p_xi):
            if not 0.0 <= value <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

    def to_json(self) -> str:
        payload = {
            "alpha": self.alpha,
            "delta": self.delta,
            "N": self.n_triggers,
            "n": self.n,
            "tau": self.tau,
            "R_bar": self.r_bar,
            "R_under": self.r_under,
            "l": self.lower_l,
            "u": self.upper_u,
            "p_omega": self.p_omega,
            "p_xi": self.p_xi,
            "h_minus": self.lemma.h_minus,
            "h_plus": self.lemma.h_plus,
            "h_minus_reason": self.lemma.minus_reason,
            "h_plus_reason": self.lemma.plus_reason,
            "epsilon": self.lemma.epsilon,
            "p_hat": self.p_hat,
            "q_hat": self.q_hat,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_bound_report(
    omega: tuple,
    xi: tuple,
    n: int,
    tau: int,
    r_bar: int,
    r_under: int,
    alpha: float,
    delta: float,
    p_hat: float,
    q_hat: float,
) -> BoundReport:
    """Assemble the full report: interval estimates, Poisson-binomial
    deviation bounds, and the Chernoff-Hoeffding bounds from the observed
    rates p_hat (one functional copy) and q_hat (one independent model).

    `omega` and `xi` are each population's (matches, trials) per trigger,
    as (N,) arrays in one trigger order; every limit is taken at alpha / N."""
    level = alpha / len(omega[0])
    lower_l, _ = collision_estimate(*omega, level)
    _, upper_u = collision_estimate(*xi, level)
    p_omega, p_xi = detection_rate_bounds(lower_l, upper_u, n, tau, r_bar, r_under)
    lemma = lemma_bounds(p_hat, q_hat, delta, r_bar, r_under, lower_l.size)
    return BoundReport(
        alpha=alpha,
        delta=delta,
        n_triggers=lower_l.size,
        n=n,
        tau=tau,
        r_bar=r_bar,
        r_under=r_under,
        lower_l=lower_l.tolist(),
        upper_u=upper_u.tolist(),
        p_omega=p_omega,
        p_xi=p_xi,
        lemma=lemma,
        p_hat=p_hat,
        q_hat=q_hat,
    )
