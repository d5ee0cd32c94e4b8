"""Reference implementations that the tests compare the package against.

The K x N surrogate of the MM steps, the spectral bounds of the design
problem one user at a time, the mean Gram of the channel estimate from its
definition, the MMSE estimate of one dense draw
(:func:`riszf.channel.sample_channels`), and the dense Gram of one K x K
Monte-Carlo draw.
"""

import math

import numpy as np

from riszf.channel import ChannelRealization, PhaseShifts, aggregated_mean, mean_row
from riszf.config import SystemConfig
from riszf.estimation import compute_statistics, hermitian_inverse, shrink_estimate
from riszf.optimizer import _BOUND_PAD, FractionalProblem, _point


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


def spectral_bounds(config: SystemConfig) -> np.ndarray:
    """``FractionalProblem.spectral_bounds`` with one K x K eigenproblem per user, in a loop.

    The per-user form of :func:`riszf.optimizer.build_problem`, which solves
    the K Hermitian R M_k R^H in one stacked call.
    """
    stats = compute_statistics(config)
    lam_inv = hermitian_inverse(stats.lam, "estimate correlation matrix")
    weight = 1.0 + stats.scale * np.real(np.diag(lam_inv))
    rho = config.beta * config.delta / (config.delta + 1.0)
    eigval, eigvec = np.linalg.eigh(stats.gram)
    r = np.sqrt(np.clip(eigval, 0.0, None))[:, None] * eigvec.conj().T
    r_lam = r @ lam_inv
    r_lam_r = r_lam @ r.conj().T
    bounds = np.empty(config.K)
    for k in range(config.K):
        m = weight[k] * r_lam_r - stats.scale * np.outer(r_lam[:, k], np.conj(r_lam[:, k]))
        top = max(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]), 0.0)
        bounds[k] = (weight[k] / config.N + rho * top) * (1.0 + _BOUND_PAD)
    return bounds


def qhat_gram_mean(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Expected Gram matrix E{qhat^H qhat} (K x K).

    Equals M * (lam + mu^H mu) with mu the channel-mean row
    (:func:`riszf.channel.mean_row`); the random part contributes M * lam and
    the rank-one LoS part the rest.
    """
    mu = mean_row(config, phase)
    return config.M * (compute_statistics(config).lam + np.outer(np.conj(mu), mu))


def mmse_estimate(config: SystemConfig, realization: ChannelRealization
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(qhat, q - qhat)``: :func:`riszf.estimation.shrink_estimate` of one dense draw."""
    return shrink_estimate(realization.q, realization.pilot_noise,
                           aggregated_mean(config, realization.phase),
                           compute_statistics(config).kappa)


def gram_from_draw(config: SystemConfig, phase: PhaseShifts, w: np.ndarray,
                   bartlett: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(G, x)`` of draws ``(w, A)`` from :func:`riszf.rate.sample_gram`, formed densely.

    G = P P^H + x x^H (trials, K, K) with P = L A, L = chol(Lambda), and
    x = sqrt(M) mu^H + L w^H (trials, K), mu the channel-mean row.  The
    Monte-Carlo kernel never forms G; the tests check it against this.
    """
    lam_factor = np.linalg.cholesky(compute_statistics(config).lam)
    root = lam_factor @ bartlett
    x = math.sqrt(config.M) * np.conj(mean_row(config, phase)) + w.conj() @ lam_factor.T
    gram = root @ root.conj().swapaxes(-1, -2) + x[:, :, None] * x.conj()[:, None, :]
    return gram, x
