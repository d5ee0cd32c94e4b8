"""Ergodic-rate quantities for the ZF uplink under imperfect CSI.

Monte-Carlo evaluation of the exact rate, the statistical-CSI lower bound,
the phase-independent lower bound and its diagonal approximation, the upper
bounds, the power-scaling limit, and the antenna-count trade-off formula.
All rates are in bits/s/Hz and include the pilot-overhead factor
tau_overhead = (tau_c - tau) / tau_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhaseShifts, aggregated_mean, alignment_response, sample_aggregated
from .config import SystemConfig
from .errors import ConfigError, NumericalError
from .estimation import (ChannelStatistics, cholesky_factor, compute_statistics,
                         hermitian_inverse, random_component_power, row_covariance,
                         shrink_estimate)

#: Redraws per Monte-Carlo trial before a singular Gram matrix is fatal.
_MAX_RESAMPLE = 32

#: Trials per batched Monte-Carlo draw.  Fixed, so that results depend only on
#: the seed; small, so that a chunk's (trials, M, K) arrays stay in cache.
_CHUNK = 16


def _interference_floor(config: SystemConfig, stats: ChannelStatistics) -> float:
    """Residual interference-plus-noise power p * sum(epsilon) + sigma2."""
    return config.p * float(stats.epsilon.sum()) + config.sigma2


def _rates_from_snr(config: SystemConfig, snr: np.ndarray) -> np.ndarray:
    return config.tau_overhead * np.log2(1.0 + snr)


def rate_lower_bound_snr(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Per-user SNR of the statistical-CSI lower bound (length K)."""
    stats = compute_statistics(config)
    w = np.sqrt(config.alpha) * np.conj(alignment_response(config, phase))
    rho = config.beta * config.delta / (config.delta + 1.0)
    mat = stats.lam + rho * np.outer(w, np.conj(w))
    inv_diag = np.real(np.diag(hermitian_inverse(mat, "rate lower bound")))
    return config.p * (config.M - config.K) / (_interference_floor(config, stats) * inv_diag)


def rate_lower_bound(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Closed-form per-user rate lower bound for the given phase configuration.

    tau_overhead * log2(1 + p (M-K) / ((p sum(eps) + sigma2) *
    [(lam + beta*delta/(delta+1) w w^H)^{-1}]_kk)), w = H1^H Phi^H a_N.
    Tight enough to track Monte-Carlo rates within a few percent at the
    default operating point.
    """
    return _rates_from_snr(config, rate_lower_bound_snr(config, phase))


def rate_no_ris(config: SystemConfig) -> np.ndarray:
    """Per-user rate of the conventional system with the RIS switched off.

    Depends only on the direct links; equals the statistical-CSI bound
    evaluated at alpha = beta = 0.
    """
    noise_over_gain = config.sigma2 / (config.tau * config.p)
    err = 1.0 / (config.tau * config.p / config.sigma2 + 1.0 / config.gamma)
    denom = config.p * float(err.sum()) + config.sigma2
    snr = (config.p * (config.M - config.K) / denom
           * config.gamma**2 / (config.gamma + noise_over_gain))
    return _rates_from_snr(config, snr)


def phase_independent_snr(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """(exact, approximate) per-user SNR of the phase-independent lower bound."""
    stats = compute_statistics(config)
    prefactor = config.p * (config.M - config.K) / _interference_floor(config, stats)
    inv_diag = np.real(np.diag(hermitian_inverse(stats.lam, "phase-independent lower bound")))
    c = random_component_power(config)
    approx = prefactor * c**2 / (c + config.sigma2 / (config.tau * config.p))
    return prefactor / inv_diag, approx


def phase_independent_bound(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Phase-independent per-user rate lower bound, exact and approximate.

    The exact form uses [lam^{-1}]_kk; the approximation replaces lam by its
    diagonal, giving the closed form (N alpha_k beta/(delta+1) + gamma_k)^2 /
    (N alpha_k beta/(delta+1) + gamma_k + sigma2/(tau p)).  Equality with
    ``rate_lower_bound`` holds at delta = 0.
    """
    exact, approx = phase_independent_snr(config)
    return _rates_from_snr(config, exact), _rates_from_snr(config, approx)


def upper_bound(config: SystemConfig, phase: PhaseShifts) -> tuple[np.ndarray, np.ndarray]:
    """(general, aligned) per-user rate upper bounds.

    The general bound keeps the actual beam response |a_N^H Phi hbar_k|^2;
    the aligned bound replaces it by its maximum N^2, attained when the
    phases are aligned to user k.
    """
    stats = compute_statistics(config)
    prefactor = config.p * (config.M - config.K) / _interference_floor(config, stats)
    c = random_component_power(config)
    diag_term = c**2 / (c + config.sigma2 / (config.tau * config.p))
    los_gain = config.alpha * config.beta * config.delta / (config.delta + 1.0)
    response = np.abs(alignment_response(config, phase)) ** 2
    general = prefactor * (diag_term + response * los_gain)
    aligned = prefactor * (diag_term + config.N**2 * los_gain)
    return _rates_from_snr(config, general), _rates_from_snr(config, aligned)


def power_scaling_limit(config: SystemConfig, phase: PhaseShifts,
                        e_u: float) -> tuple[np.ndarray, np.ndarray]:
    """Limiting per-user SNR when p = e_u / N and N grows without bound.

    Returns ``(limit, bound)``: the limit uses [Xi^{-1}]_kk with
    Xi = diag(a_k^2 / (a_k + sigma2/(tau e_u))) + beta*delta/(delta+1) * w w^H / N,
    a_k = alpha_k beta / (delta + 1); the bound is its diagonal relaxation.
    They coincide when delta = 0.
    """
    if e_u <= 0:
        raise NumericalError("power-scaling constant e_u must be positive")
    a = config.alpha * config.beta / (config.delta + 1.0)
    xi_diag = a**2 / (a + config.sigma2 / (config.tau * e_u))
    w = np.sqrt(config.alpha) * np.conj(alignment_response(config, phase))
    rho = config.beta * config.delta / (config.delta + 1.0)
    xi = np.diag(xi_diag).astype(complex) + rho * np.outer(w, np.conj(w)) / config.N
    with np.errstate(divide="ignore"):
        pilot_limited = e_u / (config.tau * e_u / config.sigma2 + (config.delta + 1.0)
                               / (config.alpha * config.beta))
    prefactor = e_u * (config.M - config.K) / (float(pilot_limited.sum()) + config.sigma2)
    inv_diag = np.real(np.diag(hermitian_inverse(xi, "power-scaling limit")))
    return prefactor / inv_diag, prefactor * xi_diag


def required_antennas(config: SystemConfig, N: int, C0: float, k: int) -> float:
    """Antennas needed to hit target SNR C0 for user k with N RIS elements.

    Closed form for a Rayleigh RIS-BS link (delta = 0 semantics; the config's
    delta is ignored) and large N:
        M = C0 (K + tau) sigma2 / (tau p (N alpha_k beta + gamma_k)) + K.
    Users are indexed from 0.
    """
    if C0 <= 0:
        raise NumericalError("target SNR C0 must be positive")
    gain = N * config.alpha[k] * config.beta + config.gamma[k]
    return (C0 * (config.K + config.tau) * config.sigma2
            / (config.tau * config.p * gain) + config.K)


@dataclass(frozen=True)
class MonteCarloRate:
    """Per-user Monte-Carlo rate estimates with their standard errors.

    ``singular_retries`` counts trials that had to be redrawn because the
    estimated Gram matrix lost positive definiteness (a probability-zero
    event under continuous fading).
    """

    rates: np.ndarray
    std_errors: np.ndarray
    sum_rate: float
    sum_rate_se: float
    trials: int
    seed: int
    singular_retries: int


def _mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 of per-trial ``samples`` and its standard error (0 for one trial)."""
    trials = samples.shape[0]
    mean = samples.mean(axis=0)
    if trials == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(trials)


def _substream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _row_factor(config: SystemConfig) -> np.ndarray:
    return cholesky_factor(row_covariance(config), "channel row covariance")


def mc_draws(config: SystemConfig, mean: np.ndarray, trials: int, seed: int):
    """Batched draws of ``trials`` aggregated channels, ``_CHUNK`` trials at a time.

    Yields ``(c, q, pilot_noise)`` per chunk c, each array (<= _CHUNK, M, K)
    from :func:`riszf.channel.sample_aggregated`.  Chunk c draws from the
    substream (seed, c), so a draw depends only on the seed and its index.
    """
    factor = _row_factor(config)
    for c, start in enumerate(range(0, trials, _CHUNK)):
        yield c, *sample_aggregated(config, mean, factor, _substream(seed, (c,)),
                                    min(_CHUNK, trials - start))


def _zf_rates(config: SystemConfig, qhat: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Per-trial ZF rates (T x K) of stacked estimates and errors (T, M, K).

    Raises :class:`NumericalError` when any Gram matrix is singular.
    """
    qhat_h = qhat.conj().swapaxes(-1, -2)
    gram_inv = hermitian_inverse(qhat_h @ qhat, "estimate Gram matrix")
    leakage = gram_inv @ (qhat_h @ err)
    rx_norm2 = np.real(np.diagonal(gram_inv, axis1=-2, axis2=-1))
    interference = config.p * np.sum(np.abs(leakage) ** 2, axis=-1)
    sinr = config.p / (interference + config.sigma2 * rx_norm2)
    return config.tau_overhead * np.log2(1.0 + sinr)


def _trial_rates(config: SystemConfig, kappa: np.ndarray, mean: np.ndarray,
                 q: np.ndarray, pilot_noise: np.ndarray, seed: int,
                 key: tuple) -> tuple[np.ndarray, int]:
    """``(rates, redraws)`` of one trial (1, M, K).

    While its Gram is singular the trial is redrawn from the substream
    (seed, *key, attempt), at most ``_MAX_RESAMPLE`` times.
    """
    for attempt in range(_MAX_RESAMPLE + 1):
        if attempt:
            q, pilot_noise = sample_aggregated(config, mean, _row_factor(config),
                                               _substream(seed, (*key, attempt - 1)), 1)
        qhat, err = shrink_estimate(q, pilot_noise, mean, kappa)
        try:
            rates = _zf_rates(config, qhat, err)
        except NumericalError:
            continue
        return rates[0], attempt
    raise NumericalError(f"trial {key}: Gram matrix stayed singular after "
                         f"{_MAX_RESAMPLE} redraws")


def exact_rate_mc(config: SystemConfig, phase: PhaseShifts, trials: int,
                  seed: int) -> MonteCarloRate:
    """Monte-Carlo average of the exact per-user ZF rate.

    Each trial draws the aggregated channel directly in its M x K form
    (:func:`mc_draws`), forms the MMSE estimate, applies the ZF receiver
    A = Qhat (Qhat^H Qhat)^{-1} through the Cholesky factor of the K x K
    Gram (one stacked factorization per chunk of trials), and evaluates
        tau_overhead * log2(1 + p / (p sum_i |a_k^H e_i|^2 + sigma2 |a_k|^2)).
    The cost per trial is O(MK^2), independent of N.  Chunk c of trials
    draws from the substream (seed, c); if a Gram in the chunk is singular
    the chunk is redone trial by trial and trial i is redrawn from
    (seed, c, i, attempt).  Results are bit-identical for a given seed.
    """
    if trials < 1:
        raise NumericalError("trials must be >= 1")
    if phase.n != config.N:
        raise ConfigError(f"phase vector has {phase.n} entries, config expects {config.N}")
    stats = compute_statistics(config)
    mean = aggregated_mean(config, phase)

    per_trial = np.empty((trials, config.K))
    retries = 0
    for c, q, pilot_noise in mc_draws(config, mean, trials, seed):
        block = per_trial[c * _CHUNK:(c + 1) * _CHUNK]
        qhat, err = shrink_estimate(q, pilot_noise, mean, stats.kappa)
        try:
            block[:] = _zf_rates(config, qhat, err)
        except NumericalError:
            for i in range(q.shape[0]):
                block[i], redraws = _trial_rates(config, stats.kappa, mean, q[i:i + 1],
                                                 pilot_noise[i:i + 1], seed, (c, i))
                retries += redraws

    rates, std_errors = _mean_and_se(per_trial)
    _, sum_se = _mean_and_se(per_trial.sum(axis=1))
    return MonteCarloRate(rates=rates, std_errors=std_errors,
                          sum_rate=float(rates.sum()), sum_rate_se=float(sum_se),
                          trials=trials, seed=seed, singular_retries=retries)


@dataclass(frozen=True)
class RateReport:
    """All rate quantities of one scenario evaluation."""

    mc_rate: np.ndarray
    mc_std_error: np.ndarray
    mc_sum_rate_se: float
    lower_bound: np.ndarray
    floor_bound: np.ndarray
    floor_bound_approx: np.ndarray
    ub: np.ndarray
    ub_aligned: np.ndarray
    trials: int
    seed: int
    tau_overhead: float
    singular_retries: int


def rate_report(config: SystemConfig, phase: PhaseShifts, trials: int,
                seed: int) -> RateReport:
    """Monte-Carlo rate plus every closed-form bound at one operating point.

    Runs :func:`exact_rate_mc`, :func:`rate_lower_bound`,
    :func:`phase_independent_bound` and :func:`upper_bound` in turn; each
    derives the LoS and statistics it needs from ``config``.
    """
    mc = exact_rate_mc(config, phase, trials, seed)
    floor_bound, floor_bound_approx = phase_independent_bound(config)
    ub, ub_aligned = upper_bound(config, phase)
    return RateReport(
        mc_rate=mc.rates, mc_std_error=mc.std_errors, mc_sum_rate_se=mc.sum_rate_se,
        lower_bound=rate_lower_bound(config, phase),
        floor_bound=floor_bound, floor_bound_approx=floor_bound_approx, ub=ub, ub_aligned=ub_aligned,
        trials=trials, seed=seed, tau_overhead=config.tau_overhead,
        singular_retries=mc.singular_retries,
    )
