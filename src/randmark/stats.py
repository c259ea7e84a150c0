"""Sample statistics over decoded distances and the calibrated decision rule.

A suspect is declared watermarked for a trigger when the mean Hamming
distance rho between extracted and assigned messages is at most tau; the
detection rate is the fraction of triggers passing that test. tau is
calibrated against an exact binomial model of a chance-level decoder: pick
the largest threshold whose false-positive mass stays below the target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Above this message length the exact rational tail switches to log-domain
# summation.
_EXACT_N_CAP = 64


def mean_distance(distances: np.ndarray) -> list[float]:
    """rho per trigger: the mean Hamming distance over each row's K draws of
    an (N, K) distance array."""
    if distances.ndim != 2 or distances.shape[1] < 1:
        raise ValueError(f"need an (N, K) distance array with K >= 1, got {distances.shape}")
    return distances.mean(axis=1).tolist()


def var_distance(distances: np.ndarray) -> list[float | None]:
    """Unbiased sample variance of each row's K per-draw distances; None for
    every trigger when K < 2 (the statistic is undefined for one draw)."""
    if distances.shape[1] < 2:
        return [None] * distances.shape[0]
    return distances.var(axis=1, ddof=1).tolist()


def decide(rho: float, tau: int) -> bool:
    """Watermarked iff rho <= tau (inclusive)."""
    return rho <= tau


def detection_rate(rhos, tau: int) -> float:
    """Fraction of triggers whose rho is at or below tau."""
    values = np.asarray(list(rhos), dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty rho list")
    return float((values <= tau).mean())


def _binomial_tail_exact(r: Fraction, n: int, tau: int) -> Fraction:
    """Sum_{j=0}^{tau} C(n,j) (1-r)^j r^(n-j) in exact rational arithmetic."""
    q = 1 - r
    total = Fraction(0)
    for j in range(tau + 1):
        total += math.comb(n, j) * q**j * r ** (n - j)
    return total


def _binomial_tail_log(r: float, n: int, tau: int) -> float:
    """Log-domain evaluation for n beyond the exact-integer cap."""
    if r == 0.0:
        return 1.0 if tau >= n else 0.0
    if r == 1.0:
        return 1.0
    log_r = math.log(r)
    log_q = math.log1p(-r)
    logs = [
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * log_q
        + (n - j) * log_r
        for j in range(tau + 1)
    ]
    peak = max(logs)
    return float(min(1.0, math.exp(peak) * sum(math.exp(v - peak) for v in logs)))


def fpr_binomial(r: float, n: int, tau: int) -> float:
    """False-positive mass of the decision rule under a chance decoder.

    With every bit matching independently with probability r, the mismatch
    count is binomial; this returns P(mismatches <= tau). Exact rational
    arithmetic for n <= 64, log-domain beyond.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if not 0 <= tau <= n:
        raise ValueError("tau must lie in [0, n]")
    if tau == n:
        return 1.0
    if n <= _EXACT_N_CAP:
        return float(_binomial_tail_exact(Fraction(r), n, tau))
    return _binomial_tail_log(float(r), n, tau)


def select_threshold(r: float, n: int, epsilon_fpr: float) -> int | None:
    """Largest tau < n with fpr_binomial(r, n, tau) strictly below
    epsilon_fpr; None when even tau = 0 violates the bound."""
    if not 0.0 < epsilon_fpr:
        raise ValueError("epsilon_fpr must be positive")
    chosen = None
    for tau in range(n):
        if fpr_binomial(r, n, tau) < epsilon_fpr:
            chosen = tau
        else:
            break
    return chosen


def covariance_delta(
    distances_f: np.ndarray, distances_g: np.ndarray, seed_f: int, seed_g: int
) -> list[float | None]:
    """Per trigger, the sample covariance of two models' per-draw distance
    sequences (two (N, K) arrays decoded with run seeds seed_f and seed_g),
    via the polarization identity (V(X) + V(Y) - V(X-Y)) / 2 with unbiased
    variances. Requires paired noise draws over the same N triggers; None
    for every trigger when K < 2."""
    if seed_f != seed_g:
        raise ValueError("covariance_delta requires paired noise draws (same stream seed)")
    if distances_f.shape != distances_g.shape:
        raise ValueError("covariance_delta requires distances over the same triggers and K")
    if distances_f.shape[1] < 2:
        return [None] * distances_f.shape[0]
    x = distances_f.astype(np.float64)
    y = distances_g.astype(np.float64)
    return (
        (x.var(axis=1, ddof=1) + y.var(axis=1, ddof=1) - (x - y).var(axis=1, ddof=1)) / 2.0
    ).tolist()


@dataclass
class VerificationReport:
    """Per-trigger decision statistics for one suspect model."""

    suspect_id: str
    n: int
    tau: int
    k_draws: int
    seed: int
    rho: list[float]
    variance: list[float | None]

    def __post_init__(self):
        if len(self.rho) == 0:
            raise ValueError("report needs at least one trigger")
        if len(self.variance) != len(self.rho):
            raise ValueError("variance list must match rho list")

    @property
    def decisions(self) -> list[bool]:
        return [decide(r, self.tau) for r in self.rho]

    @property
    def detection_rate(self) -> float:
        return detection_rate(self.rho, self.tau)

    @classmethod
    def from_batches(
        cls, suspect_id: str, distances: np.ndarray, n: int, tau: int, seed: int
    ) -> "VerificationReport":
        """Assemble a report from decode_triggers' (N, K) distances for
        messages of n bits."""
        return cls(
            suspect_id=suspect_id,
            n=n,
            tau=tau,
            k_draws=distances.shape[1],
            seed=seed,
            rho=mean_distance(distances),
            variance=var_distance(distances),
        )

    def to_json(self) -> str:
        payload = {
            "suspect_id": self.suspect_id,
            "n": self.n,
            "tau": self.tau,
            "K": self.k_draws,
            "seed": self.seed,
            "rho": self.rho,
            "detection_rate": self.detection_rate,
            "variance": self.variance,
            "decision_per_trigger": self.decisions,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def sweep_rows(suspect_id: str, kind: str, rhos, n: int) -> list[tuple[str, str, int, float]]:
    """Detection-rate curve rows (suspect_id, kind, tau, rate) for
    tau = 0..n, reusing one set of per-trigger rho values."""
    return [
        (suspect_id, kind, tau, detection_rate(rhos, tau)) for tau in range(n + 1)
    ]


def write_detection_sweep(path, rows) -> None:
    """CSV with header suspect_id,kind,tau,detection_rate."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suspect_id", "kind", "tau", "detection_rate"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(float(row[3]))])
