"""Sample statistics over extraction batches and the calibrated decision rule.

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

from .watermark import BitMessage, ExtractionBatch

# Above this message length the exact rational tail switches to log-domain
# summation.
_EXACT_N_CAP = 64


def hamming_distance(m: BitMessage, m_prime: BitMessage) -> int:
    """Number of differing bit positions."""
    if len(m) != len(m_prime):
        raise ValueError(f"length mismatch: {len(m)} vs {len(m_prime)}")
    return int((m.bits != m_prime.bits).sum())


def mean_distance(batch: ExtractionBatch) -> float:
    """rho for one trigger: mean Hamming distance over the K draws."""
    if batch.k_draws < 1:
        raise ValueError("empty extraction batch")
    return float(batch.distances.mean())


def var_distance(batch: ExtractionBatch) -> float | None:
    """Unbiased sample variance of the per-draw distances; None when K < 2
    (the statistic is undefined for a single draw)."""
    if batch.k_draws < 2:
        return None
    return float(batch.distances.var(ddof=1))


def _require_paired(a: ExtractionBatch, b: ExtractionBatch, what: str) -> None:
    if a.noise_seed != b.noise_seed:
        raise ValueError(f"{what} requires paired noise draws (same stream seed)")
    if a.k_draws != b.k_draws or a.n != b.n:
        raise ValueError(f"{what} requires batches of equal K and n")


def cross_model_variance(batch_f: ExtractionBatch, batch_h: ExtractionBatch) -> float | None:
    """Unbiased variance of the per-draw Hamming distance between the two
    models' extracted messages, under paired noise draws."""
    _require_paired(batch_f, batch_h, "cross_model_variance")
    if batch_f.k_draws < 2:
        return None
    cross = (batch_f.hard_bits != batch_h.hard_bits).sum(axis=1).astype(np.float64)
    return float(cross.var(ddof=1))


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


def covariance_delta(batch_f: ExtractionBatch, batch_g: ExtractionBatch) -> float | None:
    """Sample covariance of the two models' per-draw distance sequences,
    via the polarization identity (V(X) + V(Y) - V(X-Y)) / 2 with unbiased
    variances. Requires paired noise draws and the same trigger message;
    None when K < 2."""
    _require_paired(batch_f, batch_g, "covariance_delta")
    if batch_f.message != batch_g.message:
        raise ValueError("covariance_delta requires the same trigger message")
    if batch_f.k_draws < 2:
        return None
    x = batch_f.distances.astype(np.float64)
    y = batch_g.distances.astype(np.float64)
    return float((x.var(ddof=1) + y.var(ddof=1) - (x - y).var(ddof=1)) / 2.0)


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
    delta: list[float | None] | None = None

    def __post_init__(self):
        if len(self.rho) == 0:
            raise ValueError("report needs at least one trigger")
        if len(self.variance) != len(self.rho):
            raise ValueError("variance list must match rho list")
        if self.delta is not None and len(self.delta) != len(self.rho):
            raise ValueError("delta list must match rho list")

    @property
    def decisions(self) -> list[bool]:
        return [decide(r, self.tau) for r in self.rho]

    @property
    def detection_rate(self) -> float:
        return detection_rate(self.rho, self.tau)

    @classmethod
    def from_batches(
        cls,
        suspect_id: str,
        batches: list[ExtractionBatch],
        tau: int,
        seed: int,
        reference_batches: list[ExtractionBatch] | None = None,
    ) -> "VerificationReport":
        """Assemble a report from per-trigger extraction batches, with
        covariance deltas against an optional paired reference."""
        rho = [mean_distance(b) for b in batches]
        variance = [var_distance(b) for b in batches]
        delta = None
        if reference_batches is not None:
            if len(reference_batches) != len(batches):
                raise ValueError("reference batches must cover the same triggers")
            delta = [
                covariance_delta(b, ref) for b, ref in zip(batches, reference_batches)
            ]
        return cls(
            suspect_id=suspect_id,
            n=batches[0].n,
            tau=tau,
            k_draws=batches[0].k_draws,
            seed=seed,
            rho=rho,
            variance=variance,
            delta=delta,
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
        if self.delta is not None:
            payload["delta"] = self.delta
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        payload = json.loads(text)
        return cls(
            suspect_id=payload["suspect_id"],
            n=payload["n"],
            tau=payload["tau"],
            k_draws=payload["K"],
            seed=payload["seed"],
            rho=payload["rho"],
            variance=payload["variance"],
            delta=payload.get("delta"),
        )


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
