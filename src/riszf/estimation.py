"""MMSE estimation of the aggregated channel and its deterministic statistics.

The pilot phase is not simulated slot by slot: the sufficient statistic for
user k is its aggregated channel plus CN(0, sigma2/(tau p) I) noise, so the
estimator works directly on ``realization.q + realization.pilot_noise``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelRealization, PhaseShifts, aggregated_mean, alignment_response,
                      steering_gram)
from .config import SystemConfig
from .errors import ConfigError, NumericalError


def cholesky_factor(mat: np.ndarray, context: str) -> np.ndarray:
    """Lower Cholesky factor L (mat = L L^H) of a Hermitian positive-definite matrix.

    Works on one matrix or on a stack (..., K, K).  Raises
    :class:`NumericalError` naming ``context`` when ``mat`` or its factor is
    not finite, or when ``mat`` is not positive definite.
    """
    if not np.all(np.isfinite(mat)):
        raise NumericalError(f"{context}: matrix is not finite (invalid configuration?)")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{context}: matrix is not positive definite "
                             "(invalid configuration?)") from exc
    if not np.all(np.isfinite(chol)):
        raise NumericalError(f"{context}: Cholesky factor is not finite")
    return chol


def hermitian_inverse(mat: np.ndarray, context: str) -> np.ndarray:
    """Inverse of a Hermitian positive-definite matrix (or stack) from its Cholesky factor.

    With mat = L L^H the inverse is L^{-H} L^{-1}; errors as in
    :func:`cholesky_factor`.
    """
    chol_inv = np.linalg.inv(cholesky_factor(mat, context))
    return chol_inv.conj().swapaxes(-1, -2) @ chol_inv


def random_component_power(config: SystemConfig) -> np.ndarray:
    """Per-user power of the random part of the aggregated channel (length K).

    Entry k is N * alpha_k * beta / (delta + 1) + gamma_k: the cascaded NLoS
    power plus the direct-link power.
    """
    return config.N * config.alpha * config.beta / (config.delta + 1.0) + config.gamma


@dataclass(frozen=True)
class ChannelStatistics:
    """Deterministic second-order statistics of the channel estimate.

    ``kappa`` is the per-user MMSE shrinkage weight in (0, 1); ``epsilon``
    the per-antenna estimation-error power; ``lam`` the K x K Hermitian
    positive-definite matrix of estimated-channel correlations that enters
    the closed-form rate bound.
    """

    kappa: np.ndarray
    epsilon: np.ndarray
    lam: np.ndarray

    @property
    def upsilon(self) -> np.ndarray:
        """diag(kappa) as a dense K x K matrix."""
        return np.diag(self.kappa)


def compute_statistics(config: SystemConfig) -> ChannelStatistics:
    """Shrinkage weights, error powers, and the estimate correlation matrix.

    With c_k = N alpha_k beta / (delta+1) + gamma_k and pilot gain tau*p/sigma2:

        kappa_k   = c_k / (c_k + sigma2/(tau p))
        epsilon_k = 1 / (1/c_k + tau p / sigma2)
        lam       = beta/(delta+1) * U H1^H H1 U + diag(gamma) U^2
                    + sigma2/(tau p) * U^2,   U = diag(kappa)

    so [lam]_kk = (c_k + sigma2/(tau p)) * kappa_k^2 in closed form.  The
    steering Gram is evaluated analytically, so arbitrarily large element
    counts stay cheap.
    """
    if config.p <= 0 or config.sigma2 <= 0 or config.tau <= 0:
        raise ConfigError("compute_statistics needs positive p, sigma2, and tau")
    noise_over_gain = config.sigma2 / (config.tau * config.p)
    c = random_component_power(config)
    kappa = c / (c + noise_over_gain)
    epsilon = 1.0 / (1.0 / c + 1.0 / noise_over_gain)

    gram = steering_gram(config.N, config.user_ris_angles, config.d_over_lambda)
    scaled = np.sqrt(config.alpha) * kappa
    lam = (config.beta / (config.delta + 1.0)) * gram * np.outer(scaled, scaled)
    lam[np.diag_indices_from(lam)] += (config.gamma + noise_over_gain) * kappa**2
    lam = 0.5 * (lam + lam.conj().T)
    return ChannelStatistics(kappa=kappa, epsilon=epsilon, lam=lam)


def row_covariance(config: SystemConfig) -> np.ndarray:
    """Covariance R of each row of Q - mean (K x K), for any phase.

    Phi is unitary and the NLoS rows of H2 are i.i.d. CN(0, I), so every row
    of the random part of Q is CN(0, R) with
    R = beta/(delta+1) diag(sqrt(alpha)) S diag(sqrt(alpha)) + diag(gamma),
    S the steering Gram of the user-RIS responses.  R is positive definite
    because gamma > 0.
    """
    gram = steering_gram(config.N, config.user_ris_angles, config.d_over_lambda)
    root = np.sqrt(config.alpha)
    cov = (config.beta / (config.delta + 1.0)) * gram * np.outer(root, root)
    cov[np.diag_indices_from(cov)] += config.gamma
    return 0.5 * (cov + cov.conj().T)


def shrink_estimate(q: np.ndarray, pilot_noise: np.ndarray, mean: np.ndarray,
                    kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(qhat, q - qhat)`` with qhat = mean + kappa (q - mean + pilot_noise).

    The MMSE formula of :func:`mmse_estimate` on raw arrays; ``q`` and
    ``pilot_noise`` may be stacks (..., M, K) of draws.
    """
    qhat = mean + kappa * (q - mean + pilot_noise)
    return qhat, q - qhat


def mmse_estimate(config: SystemConfig, realization: ChannelRealization,
                  stats: ChannelStatistics | None = None,
                  mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """MMSE estimate of the aggregated channel and the estimation error.

    Returns ``(qhat, err)`` with ``err = q - qhat``; the error is independent
    of the estimate by the orthogonality principle.  ``stats`` and ``mean``
    (the deterministic channel mean for the realization's phase) may be
    passed in to avoid recomputation in Monte-Carlo loops.

    Column k of qhat is  mean_k + kappa_k * (q_k - mean_k + pilot_noise_k).
    """
    if realization.q.shape != (config.M, config.K):
        raise ConfigError(
            f"realization shape {realization.q.shape} does not match config "
            f"({config.M}, {config.K})"
        )
    if realization.phase.n != config.N:
        raise ConfigError(f"realization phase has {realization.phase.n} entries, "
                          f"config expects {config.N}")
    if stats is None:
        stats = compute_statistics(config)
    if mean is None:
        mean = aggregated_mean(config, realization.phase)
    return shrink_estimate(realization.q, realization.pilot_noise, mean, stats.kappa)


def qhat_gram_mean(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Expected Gram matrix E{qhat^H qhat} (K x K).

    Equals M * (lam + beta*delta/(delta+1) * w w^H) with
    w = H1^H Phi^H a_N; the random part contributes M * lam and the rank-one
    LoS part the rest.
    """
    stats = compute_statistics(config)
    w = np.sqrt(config.alpha) * np.conj(alignment_response(config, phase))
    rho = config.beta * config.delta / (config.delta + 1.0)
    return config.M * (stats.lam + rho * np.outer(w, np.conj(w)))
