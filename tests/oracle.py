"""Reference implementations that the tests compare the package against.

The K x N surrogate of the MM steps, the mean Gram of the channel estimate
from its definition, and the MMSE estimate of one dense draw
(:func:`riszf.channel.sample_channels`).
"""

import numpy as np

from riszf.channel import ChannelRealization, PhaseShifts, aggregated_mean, mean_row
from riszf.config import SystemConfig
from riszf.estimation import ChannelStatistics, compute_statistics, shrink_estimate
from riszf.optimizer import FractionalProblem, _point


def surrogate_maxsum(v_n: np.ndarray, problem: FractionalProblem
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Linear touching minorant of each f_k at the expansion point v_n.

    Returns ``(const, fvec)`` such that
        f_k(v) >= const[k] + 2 Re{fvec[k]^H v}   for all unit-modulus v,
    with equality at v = v_n.  This forms the K x N array ``fvec``; the
    optimizer's steps use only its weighted sums and row norms, from K x K
    factors (:func:`riszf.optimizer._surrogate_factors`).
    """
    p = _point(problem, np.asarray(v_n, dtype=complex))
    v_n, y, vbv, vcv = p.v, p.y, p.vbv, p.vcv
    n = v_n.size
    # B v = v/N + rho G^H y and C_k v = scale ([Lam^{-1}]_kk B v - rho y_k z_k)
    bv = v_n / problem.n + problem.rho * np.conj(np.conj(y) @ problem.g)
    cv = problem.scale * (problem.lam_inv_diag[:, None] * bv
                          - problem.rho * y[:, None] * np.conj(problem.los_rows))
    omega = 1.0 / vcv
    psi = vbv / (vcv * (vcv + vbv))
    lam = problem.spectral_bounds
    fvec = omega[:, None] * bv - psi[:, None] * (cv + bv - lam[:, None] * v_n)
    const = (p.values - vbv / vcv
             - psi * (lam * n - (vcv + vbv))
             - n * psi * lam)
    return const, fvec


def qhat_gram_mean(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Expected Gram matrix E{qhat^H qhat} (K x K).

    Equals M * (lam + mu^H mu) with mu the channel-mean row
    (:func:`riszf.channel.mean_row`); the random part contributes M * lam and
    the rank-one LoS part the rest.
    """
    mu = mean_row(config, phase)
    return config.M * (compute_statistics(config).lam + np.outer(np.conj(mu), mu))


def mmse_estimate(config: SystemConfig, realization: ChannelRealization,
                  stats: ChannelStatistics | None = None,
                  mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(qhat, q - qhat)``: :func:`riszf.estimation.shrink_estimate` of one dense draw.

    ``stats`` and ``mean`` (the channel mean for the realization's phase) may
    be passed in to keep them out of a Monte-Carlo loop.
    """
    return shrink_estimate(
        realization.q, realization.pilot_noise,
        aggregated_mean(config, realization.phase) if mean is None else mean,
        (compute_statistics(config) if stats is None else stats).kappa)
