"""MMSE estimation of the aggregated channel and its deterministic statistics.

The pilot phase is not simulated slot by slot: the sufficient statistic for
user k is its aggregated channel plus CN(0, sigma2/(tau p) I) noise, so the
estimator (:func:`shrink_estimate`) works directly on draws of the channel
``q`` and that ``pilot_noise``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import steering_gram
from .config import SystemConfig, _once_per_config
from .errors import NumericalError


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
    """Phase-independent statistics of the channel and its estimate (:func:`compute_statistics`).

    ``kappa``: per-user MMSE shrinkage weights in (0, 1); ``epsilon``:
    per-antenna estimation-error powers; ``lam``: the K x K estimate
    correlation Lambda; ``cov``: the K x K row covariance R of Q - mean;
    ``gram``: the K x K cascaded steering Gram G G^H; ``noise``:
    sigma2/(tau p); ``scale``: (p sum(epsilon) + sigma2) / (p (M - K)), the
    reciprocal of the ZF SINR prefactor.  One instance per
    :class:`SystemConfig` instance is shared by every caller, so its arrays
    are read-only.
    """

    kappa: np.ndarray
    epsilon: np.ndarray
    lam: np.ndarray
    cov: np.ndarray
    gram: np.ndarray
    noise: float
    scale: float


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


@_once_per_config
def compute_statistics(config: SystemConfig) -> ChannelStatistics:
    """The one source of Lambda, R, G G^H and the ZF SINR scale of a scenario.

    With c_k = N alpha_k beta / (delta+1) + gamma_k, s2 = sigma2/(tau p) and
    S the analytic steering Gram of the user-RIS responses (cheap at any N):

        kappa_k = c_k / (c_k + s2),   epsilon_k = 1 / (1/c_k + 1/s2)
        gram    = diag(sqrt(alpha)) S diag(sqrt(alpha))
        cov     = R = beta/(delta+1) gram + diag(gamma)
        lam     = U (R + s2 I) U,   U = diag(kappa)

    so [lam]_kk = c_k^2 / (c_k + s2).  Phi is unitary and the NLoS rows of H2
    are i.i.d. CN(0, I), so every row of Q - mean is CN(0, R) for any phase;
    R is positive definite because gamma > 0.

    Computed once per config instance: later calls return the same
    :class:`ChannelStatistics`, whose arrays are read-only.
    """
    noise = config.sigma2 / (config.tau * config.p)
    c = random_component_power(config)
    kappa = c / (c + noise)
    epsilon = 1.0 / (1.0 / c + 1.0 / noise)

    steering = steering_gram(config.N, config.user_ris_angles, config.d_over_lambda)
    nlos = config.beta / (config.delta + 1.0)
    root = np.sqrt(config.alpha)
    root_outer = np.outer(root, root)
    scaled = root * kappa
    lam = nlos * steering * np.outer(scaled, scaled)
    lam[np.diag_indices_from(lam)] += (config.gamma + noise) * kappa**2
    # (nlos S) * root_outer, not nlos * gram: the rounding of R fixes the
    # Monte-Carlo draws of a seed
    cov = nlos * steering * root_outer
    cov[np.diag_indices_from(cov)] += config.gamma
    scale = ((config.p * float(epsilon.sum()) + config.sigma2)
             / (config.p * (config.M - config.K)))
    return ChannelStatistics(kappa=kappa, epsilon=epsilon, lam=_hermitian_part(lam),
                             cov=_hermitian_part(cov),
                             gram=_hermitian_part(steering * root_outer),
                             noise=noise, scale=scale)


def shrink_estimate(q: np.ndarray, pilot_noise: np.ndarray, mean: np.ndarray,
                    kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MMSE estimate of the aggregated channel and the estimation error.

    Returns ``(qhat, q - qhat)`` with qhat = mean + kappa (q - mean + pilot_noise):
    column k of qhat is mean_k + kappa_k (q_k - mean_k + pilot_noise_k), with
    ``mean`` the channel mean (:func:`riszf.channel.aggregated_mean`) and
    ``kappa`` the shrinkage weights (:attr:`ChannelStatistics.kappa`).  The
    error is independent of the estimate by the orthogonality principle.
    ``q`` and ``pilot_noise`` may be stacks (..., M, K) of draws.
    """
    qhat = mean + kappa * (q - mean + pilot_noise)
    return qhat, q - qhat
