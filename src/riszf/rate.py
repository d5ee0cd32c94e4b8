"""Ergodic-rate quantities for the ZF uplink under imperfect CSI.

Monte-Carlo evaluation of the exact rate, the statistical-CSI lower bound,
the phase-independent lower bound and its diagonal approximation, the upper
bounds, the power-scaling limit, and the antenna-count trade-off formula.
All rates are in bits/s/Hz and include the pilot-overhead factor
tau_overhead = (tau_c - tau) / tau_c.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import PhaseShifts, mean_row, sample_aggregated
from .config import SystemConfig, _once_per_config
from .errors import ConfigError, NumericalError
from .estimation import cholesky_factor, compute_statistics, hermitian_inverse

#: Redraws per Monte-Carlo chunk before a singular Gram matrix is fatal.
_MAX_RESAMPLE = 32

#: Trials per chunk of :func:`exact_rate_mc`.  Fixed, so that results depend
#: only on the seed.  A chunk holds only (trials, K, K) arrays: larger chunks
#: pay numpy's per-call overhead less often, smaller ones hold fewer
#: temporaries.  At 64 a 1000-trial point at K = 8 peaks below 1 MB traced.
_CHUNK = 64

#: Trials per chunk of the M x K draws of :func:`mc_draws`; small, so that a
#: chunk's (trials, M, K) arrays stay in cache.
_DRAW_CHUNK = 16

#: Per-thread buffers of the chunk loop of :func:`exact_rates_mc` (:func:`_scratch`).
_WORK = threading.local()


def _rates_from_snr(config: SystemConfig, snr: np.ndarray) -> np.ndarray:
    return config.tau_overhead * np.log2(1.0 + snr)


def rate_lower_bound_snr(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Per-user SNR of the statistical-CSI lower bound (length K)."""
    stats = compute_statistics(config)
    mu = mean_row(config, phase)
    mat = stats.lam + np.outer(np.conj(mu), mu)
    inv_diag = np.real(np.diag(hermitian_inverse(mat, "rate lower bound")))
    return 1.0 / (stats.scale * inv_diag)


def rate_lower_bound(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Closed-form per-user rate lower bound for the given phase configuration.

    tau_overhead * log2(1 + p (M-K) / ((p sum(eps) + sigma2) *
    [(lam + mu^H mu)^{-1}]_kk)), mu the channel-mean row
    (:func:`riszf.channel.mean_row`).
    Tracks Monte-Carlo rates within a few percent at the default operating
    point, not at large M: at N = 16 and the identity phase the worst user's
    MC rate is 3.4 bits below it at M = 65536 (README, Numerical conventions).
    """
    return _rates_from_snr(config, rate_lower_bound_snr(config, phase))


def phase_independent_snr(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """(exact, approximate) per-user SNR of the phase-independent lower bound."""
    stats = compute_statistics(config)
    prefactor = 1.0 / stats.scale
    inv_diag = np.real(np.diag(hermitian_inverse(stats.lam, "phase-independent lower bound")))
    return prefactor / inv_diag, prefactor * np.real(np.diag(stats.lam))


def phase_independent_bound(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Phase-independent per-user rate lower bound, exact and approximate.

    The exact form uses [lam^{-1}]_kk; the approximation replaces lam by its
    diagonal, giving the closed form (N alpha_k beta/(delta+1) + gamma_k)^2 /
    (N alpha_k beta/(delta+1) + gamma_k + sigma2/(tau p)).  Equality with
    ``rate_lower_bound`` holds at delta = 0, and with the RIS switched off
    (alpha = beta = 0), where the exact form is the conventional system's.
    """
    exact, approx = phase_independent_snr(config)
    return _rates_from_snr(config, exact), _rates_from_snr(config, approx)


def upper_bound(config: SystemConfig, phase: PhaseShifts) -> tuple[np.ndarray, np.ndarray]:
    """(general, aligned) per-user rate upper bounds.

    The general bound keeps the LoS power |mu_k|^2 of the actual beam
    (:func:`riszf.channel.mean_row`); the aligned bound takes the beam's
    maximum |a_N^H Phi hbar_k| = N, attained when it is aligned to user k.
    """
    stats = compute_statistics(config)
    prefactor = 1.0 / stats.scale
    diag_term = np.real(np.diag(stats.lam))
    general = prefactor * (diag_term + np.abs(mean_row(config, phase)) ** 2)
    los_gain = config.alpha * config.beta * config.delta / (config.delta + 1.0)
    aligned = prefactor * (diag_term + config.N**2 * los_gain)
    return _rates_from_snr(config, general), _rates_from_snr(config, aligned)


def power_scaling_limit(config: SystemConfig, phase: PhaseShifts,
                        e_u: float) -> tuple[np.ndarray, np.ndarray]:
    """Limiting per-user SNR when p = e_u / N and N grows without bound.

    Returns ``(limit, bound)``: the limit uses [Xi^{-1}]_kk with
    Xi = diag(a_k^2 / (a_k + sigma2/(tau e_u))) + mu^H mu / N,
    a_k = alpha_k beta / (delta + 1) and mu the channel-mean row
    (:func:`riszf.channel.mean_row`); the bound is its diagonal relaxation.
    They coincide when delta = 0.
    """
    if e_u <= 0:
        raise NumericalError("power-scaling constant e_u must be positive")
    a = config.alpha * config.beta / (config.delta + 1.0)
    xi_diag = a**2 / (a + config.sigma2 / (config.tau * e_u))
    mu = mean_row(config, phase)
    xi = np.diag(xi_diag).astype(complex) + np.outer(np.conj(mu), mu) / config.N
    with np.errstate(divide="ignore"):
        pilot_limited = e_u / (config.tau * e_u / config.sigma2 + (config.delta + 1.0)
                               / (config.alpha * config.beta))
    prefactor = e_u * (config.M - config.K) / (float(pilot_limited.sum()) + config.sigma2)
    inv_diag = np.real(np.diag(hermitian_inverse(xi, "power-scaling limit")))
    return prefactor / inv_diag, prefactor * xi_diag


def required_antennas(config: SystemConfig, C0: float, k: int) -> float:
    """Antennas needed to hit target SNR C0 for user k with the config's N RIS elements.

    Closed form for a Rayleigh RIS-BS link (delta = 0 semantics; the config's
    delta is ignored) and large N:
        M = C0 (K + tau) sigma2 / (tau p (N alpha_k beta + gamma_k)) + K.
    Users are indexed from 0.
    """
    if C0 <= 0:
        raise NumericalError("target SNR C0 must be positive")
    gain = config.N * config.alpha[k] * config.beta + config.gamma[k]
    return (C0 * (config.K + config.tau) * config.sigma2
            / (config.tau * config.p * gain) + config.K)


@dataclass(frozen=True)
class MonteCarloRate:
    """Per-user Monte-Carlo rate estimates with their standard errors.

    ``singular_retries`` counts chunk redraws, each forced by a trial whose
    estimated Gram matrix lost positive definiteness (a probability-zero
    event under continuous fading) or whose rates were not finite.
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


def mc_draws(config: SystemConfig, mean: np.ndarray, trials: int, seed: int):
    """Batched M x K draws of ``trials`` aggregated channels, ``_DRAW_CHUNK`` at a time.

    Yields ``(c, q, pilot_noise)`` per chunk c, each array (<= _DRAW_CHUNK, M, K)
    from :func:`riszf.channel.sample_aggregated`.  Chunk c draws from the
    substream (seed, c), so a draw depends only on the seed and its index.
    ``riszf mse --validate`` measures the error power from these draws, which
    keeps it an independent check of the K x K law that :func:`exact_rate_mc`
    samples.
    """
    factor = cholesky_factor(compute_statistics(config).cov, "channel row covariance")
    for c, start in enumerate(range(0, trials, _DRAW_CHUNK)):
        yield c, *sample_aggregated(config, mean, factor, _substream(seed, (c,)),
                                    min(_DRAW_CHUNK, trials - start))


@dataclass(frozen=True)
class GramLaw:
    """Per-config constants of the K x K law of (G, G^{-1} Qhat^H E) (see :func:`gram_law`).

    ``lam_factor_inv`` is L^{-1}, L = chol(Lambda); ``bias`` is
    B = Lambda^{-1} U R - I; ``noise_root_h`` is S_F^H for a root
    S_F S_F^H = Sigma_F; ``dof`` holds M - 1 - i, the shape of |A_ii|^2 for
    the Bartlett factor A of the Wishart part of G; ``lower`` is the K x K
    strictly-lower mask that A's off-diagonal normals fill.  None of them
    depends on the phase: :func:`exact_rate_mc` forms the phase's whitened
    mean m and bias row b from them.
    """

    lam_factor_inv: np.ndarray
    bias: np.ndarray
    noise_root_h: np.ndarray
    dof: np.ndarray
    lower: np.ndarray


@_once_per_config
def gram_law(config: SystemConfig) -> GramLaw:
    """The law of one trial's ZF statistics, from K x K quantities only.

    With U = diag(kappa), s2 = sigma2/(tau p) and R the row covariance of
    Q - mean (``ChannelStatistics.cov``), the rows of
    Qhat - mean are i.i.d. CN(0, Lambda), Lambda = U (R + s2 I) U, and the
    error regresses on them as E = (Qhat - mean) B + F with
    B = Lambda^{-1} U R - I and F independent of Qhat, its rows i.i.d.
    CN(0, Sigma_F).  Sigma_F = R - R U Lambda^{-1} U R = s2 R (R + s2 I)^{-1}
    tends to 0 at near-perfect CSI, so its root is not a Cholesky factor of
    Sigma_F: with R = L_R L_R^H, Sigma_F = s2 L_R (L_R^H L_R + s2 I)^{-1} L_R^H,
    so S_F = s L_R T^{-H} with T the Cholesky factor of L_R^H L_R + s2 I, a
    positive-definite matrix, and no cancellation.  Lambda is factored first,
    so a Lambda that is not positive definite (it underflows to 0 at
    p = 1e-200) raises :class:`NumericalError`; the trials then need only
    L^{-1}, never L.  Nothing here depends on the phase, so the law is
    factored once per config instance and the phase designs of a figure at
    one N share it.
    """
    stats = compute_statistics(config)
    k = config.K
    cov_factor = cholesky_factor(stats.cov, "channel row covariance")
    t_factor = cholesky_factor(cov_factor.conj().T @ cov_factor + stats.noise * np.eye(k),
                               "estimation-error covariance")
    # factored before the solve, so that a Lambda that is not positive
    # definite raises NumericalError, not numpy's LinAlgError
    lam_factor = cholesky_factor(stats.lam, "estimate correlation matrix")
    return GramLaw(lam_factor_inv=_lower_inverse(lam_factor[None])[0],
                   bias=np.linalg.solve(stats.lam, stats.kappa[:, None] * stats.cov) - np.eye(k),
                   noise_root_h=(math.sqrt(stats.noise)
                                 * np.linalg.solve(t_factor, cov_factor.conj().T)),
                   dof=config.M - 1.0 - np.arange(k), lower=np.tri(k, k, -1, dtype=bool))


def _scratch(work: dict | None, name: str, shape: tuple, dtype=complex) -> np.ndarray:
    """A ``shape`` array, zero when made: new, or with ``work`` a view of its buffer ``name``.

    :func:`exact_rates_mc` passes its thread's ``work``, so every chunk and
    every later call on the thread writes into the same buffers.  Fresh
    chunk-sized temporaries let glibc trim the heap as a chunk frees them
    and fault the pages back in for the next chunk: up to 1400 page faults
    and 15 % of the time of a 1000-trial point.  Entries that a caller
    never writes (the upper triangles of A and A^{-1}) stay zero.
    """
    if work is None:
        return np.zeros(shape, dtype)
    buf = work.get(name)
    if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
        buf = work[name] = np.zeros(shape, dtype)
    return buf[:shape[0]]


def sample_gram(law: GramLaw, rng_seed, trials: int, work: dict | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, A, z)`` of ``trials`` draws, exactly in the law of the M x K draw.

    A Householder reflection that maps a_M to sqrt(M) e_1 leaves the i.i.d.
    rows of Qhat - mean i.i.d., so G = Qhat^H Qhat = P P^H + x x^H with
    P = L A, x = sqrt(M) mu^H + L w^H (``w`` (trials, K) a CN(0, I) row) and
    A (trials, K, K) the lower Bartlett factor of a complex Wishart
    CW_K(M - 1, I) (Goodman 1963): |A_ii|^2 ~ Gamma(M - 1 - i),
    A_ij ~ CN(0, 1) below the diagonal.  ``z`` (trials, K, K) is i.i.d.
    CN(0, 1) and carries the part of the leakage that is independent of
    Qhat (:func:`zf_terms`).  Per trial: K + K(K-1)/2 + K^2 complex normals
    and K gammas, drawn in that order; nothing of size M or N.  G itself is
    never formed.  ``work`` as for :func:`_scratch`.
    """
    rng = np.random.default_rng(rng_seed)
    k = law.bias.shape[0]
    n_lower = k * (k - 1) // 2
    # (..., 2) float pairs viewed as complex: real part first, as _complex_randn
    normals = rng.standard_normal(
        out=_scratch(work, "normals", (trials, k + n_lower + k * k, 2), float)).view(complex)[..., 0]
    normals *= math.sqrt(0.5)
    bartlett = _scratch(work, "bartlett", (trials, k, k))
    bartlett[:, law.lower] = normals[:, k:k + n_lower]
    diag = np.arange(k)
    bartlett[:, diag, diag] = np.sqrt(rng.standard_gamma(law.dof, size=(trials, k)))
    return normals[:, :k], bartlett, normals[:, k + n_lower:].reshape(trials, k, k)


def _lower_inverse(lower: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Inverses of stacked lower-triangular matrices (trials, K, K), by forward substitution.

    Row i of L^{-1} is -L[i, :i] L^{-1}[:i, :] / L[i, i] off the diagonal and
    1 / L[i, i] on it; each of the K steps runs over every trial at once.
    """
    trials, k, _ = lower.shape
    inv = _scratch(work, "a_inv", lower.shape)
    recip = 1.0 / np.diagonal(lower, axis1=-2, axis2=-1)
    inv.reshape(trials, k * k)[:, ::k + 1] = recip
    # rows scaled by -1 / L[i, i], so that each step is one product written in place
    scaled = np.multiply(lower, -recip[:, :, None], out=_scratch(work, "scaled", lower.shape))
    for i in range(1, k):
        # as L^{-1}[:i, i:] = 0, entries :i of row i need only the leading block
        np.matmul(scaled[:, i:i + 1, :i], inv[:, :i, :i], out=inv[:, i:i + 1, :i])
    return inv


def _row_norms2(a: np.ndarray) -> np.ndarray:
    """sum_j |a_ij|^2 over the last axis of a complex array, as re^2 + im^2."""
    pairs = a.view(float)
    return np.einsum("...i,...i->...", pairs, pairs)


def zf_chunk(law: GramLaw, w: np.ndarray, bartlett: np.ndarray, z: np.ndarray,
             work: dict | None = None) -> tuple:
    """``(A^{-1}, conj(w), P^{-H}, Z S_F^H)`` of draws from :func:`sample_gram`: the part of
    :func:`zf_terms` that no phase enters, formed once per chunk.

    P^{-1} = A^{-1} L^{-1} costs one triangular inverse per trial and one
    GEMM per chunk.  Raises :class:`NumericalError` when an A has a diagonal
    entry that is not positive (G singular).  ``work`` as for :func:`_scratch`.
    """
    trials, k, _ = bartlett.shape
    if not np.all(np.diagonal(bartlett, axis1=-2, axis2=-1).real > 0.0):
        raise NumericalError("estimate Gram matrix: Bartlett factor is singular")
    a_inv = _lower_inverse(bartlett, work)
    p_inv = np.matmul(a_inv.reshape(trials * k, k), law.lam_factor_inv,
                      out=_scratch(work, "p_inv", (trials * k, k)))
    root = np.conjugate(p_inv.reshape(trials, k, k).swapaxes(-1, -2),
                        out=_scratch(work, "root", (trials, k, k)))
    z_rows = _scratch(work, "z_rows", (trials * k, k))
    z_rows.reshape(trials, k, k)[...] = z
    noise = np.matmul(z_rows, law.noise_root_h, out=_scratch(work, "noise", (trials * k, k)))
    return a_inv, w.conj(), root, noise.reshape(trials, k, k)


def _zf_root(chunk: tuple, white_mean: np.ndarray, in_place: bool = False,
             work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(V, G^{-1} x)`` on a :func:`zf_chunk` for the whitened mean m, with no Gram.

    V V^H = G^{-1} (see :func:`zf_terms`); ``V`` is (trials, K, K) and
    ``G^{-1} x`` (trials, K, 1).  With ``in_place`` V overwrites the
    chunk's P^{-H}, which no later phase may then use.
    """
    a_inv, w_conj, v, _ = chunk
    y = a_inv @ (white_mean + w_conj)[:, :, None]
    if not in_place:
        copy = _scratch(work, "v", v.shape)
        copy[...] = v
        v = copy
    g = v @ y
    r2 = 1.0 + _row_norms2(y[..., 0])[:, None, None]
    r = np.sqrt(r2)
    v -= np.multiply(g / (r * (r + 1.0)), y.conj().swapaxes(-1, -2),
                     out=_scratch(work, "update", v.shape))
    return v, g / r2


def zf_terms(law: GramLaw, chunk: tuple, white_mean: np.ndarray, bias_row: np.ndarray,
             in_place: bool = False, work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(leakage, rx_norm2)`` of stacked draws from :func:`sample_gram`, with no Gram.

    ``chunk`` is the draws' :func:`zf_chunk`.  ``white_mean``
    m = L^{-1} sqrt(M) mu^H and ``bias_row`` b = sqrt(M) mu B carry the
    phase, through the channel-mean row mu; both have length K.
    G = P (I + y y^H) P^H with y = P^{-1} x = A^{-1} (m + w^H), so by
    Sherman & Morrison (1950), with r = sqrt(1 + |y|^2) and
    c = 1 / (r (r + 1)), V = P^{-H} (I - c y y^H) satisfies V V^H = G^{-1},
    and G^{-1} x = g / r^2 with g = P^{-H} y.  V is not the
    Cholesky root: V = C^{-H} U with C = chol(G) and U = C^H V unitary, a
    function of (A, w) alone and so independent of Z, and U Z has the law of
    Z.  Hence the ZF leakage G^{-1} Qhat^H E, in law
    B - G^{-1} x b + C^{-H} Z S_F^H, is drawn exactly as
    B - (g / r^2) b + V Z S_F^H (trials, K, K).  rx_norm2, the diagonal of
    G^{-1} (trials, K) and the squared norms of the ZF receiver columns, is
    the squared row norms of V.  ``in_place`` as for :func:`_zf_root`,
    ``work`` as for :func:`_scratch`.
    """
    v, gram_inv_x = _zf_root(chunk, white_mean, in_place, work)
    leakage = np.matmul(v, chunk[3], out=_scratch(work, "leakage", v.shape))
    leakage -= np.multiply(gram_inv_x, bias_row, out=_scratch(work, "update", v.shape))
    leakage += law.bias
    return leakage, _row_norms2(v)


def _zf_rates(config: SystemConfig, law: GramLaw, rng_seed, trials: int, terms: list,
              work: dict) -> list:
    """Per-trial ZF rates (trials x K) of each phase's (m, b) in ``terms`` on one draw.

    A phase whose rates are not all finite gets None; a singular G raises
    :class:`NumericalError` (:func:`zf_chunk`).  The draw and its
    temporaries live in ``work`` (:func:`_scratch`), and the last phase
    updates the chunk's P^{-H} in place.
    """
    chunk = zf_chunk(law, *sample_gram(law, rng_seed, trials, work), work)
    out = []
    for i, (white_mean, bias_row) in enumerate(terms):
        leakage, rx_norm2 = zf_terms(law, chunk, white_mean, bias_row, i == len(terms) - 1, work)
        interference = config.p * _row_norms2(leakage)
        rates = _rates_from_snr(config, config.p / (interference + config.sigma2 * rx_norm2))
        out.append(rates if np.all(np.isfinite(rates)) else None)
    return out


def exact_rates_mc(config: SystemConfig, phases, trials: int, seed: int
                   ) -> list[MonteCarloRate | NumericalError]:
    """:func:`exact_rate_mc` of each phase in ``phases``, on one set of draws.

    Each chunk's draw, Bartlett inverse and noise leakage are formed once
    for all phases (common random numbers), and each result is
    bit-identical to its own :func:`exact_rate_mc`: a singular Bartlett
    factor redraws the chunk for every phase still pending on it, and a
    phase whose rates are not finite is redrawn alone.  A phase that stays
    singular gets the :class:`NumericalError` that :func:`exact_rate_mc`
    raises, in place of its result.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for phase in phases:
        if phase.n != config.N:
            raise ConfigError(f"phase vector has {phase.n} entries, config expects {config.N}")
    law = gram_law(config)
    terms = []
    for phase in phases:
        r1_mean = math.sqrt(config.M) * mean_row(config, phase)
        terms.append((law.lam_factor_inv @ r1_mean.conj(), r1_mean @ law.bias))

    per_trial = [np.empty((trials, config.K)) for _ in phases]
    retries = [0] * len(phases)
    results: list = [None] * len(phases)
    work = vars(_WORK).setdefault("buffers", {})
    for c, start in enumerate(range(0, trials, _CHUNK)):
        pending = [j for j, result in enumerate(results) if result is None]
        size = min(_CHUNK, trials - start)
        for attempt in range(_MAX_RESAMPLE + 1):
            if not pending:
                break
            try:
                chunk_rates = _zf_rates(config, law,
                                        _substream(seed, (c, attempt) if attempt else (c,)),
                                        size, [terms[j] for j in pending], work)
            except NumericalError:
                chunk_rates = [None] * len(pending)
            for j, rates in zip(pending, chunk_rates):
                if rates is None:
                    retries[j] += 1
                else:
                    per_trial[j][start:start + size] = rates
            pending = [j for j, rates in zip(pending, chunk_rates) if rates is None]
        for j in pending:
            results[j] = NumericalError(f"chunk {c}: Gram matrix stayed singular after "
                                        f"{_MAX_RESAMPLE} redraws")

    for j, samples in enumerate(per_trial):
        if results[j] is None:
            rates, std_errors = _mean_and_se(samples)
            _, sum_se = _mean_and_se(samples.sum(axis=1))
            results[j] = MonteCarloRate(rates=rates, std_errors=std_errors,
                                        sum_rate=float(rates.sum()), sum_rate_se=float(sum_se),
                                        trials=trials, seed=seed, singular_retries=retries[j])
    return results


def exact_rate_mc(config: SystemConfig, phase: PhaseShifts, trials: int,
                  seed: int) -> MonteCarloRate:
    """Monte-Carlo average of the exact per-user ZF rate.

    A trial's rate depends on its channel only through two K x K matrices,
    the estimate Gram G = Qhat^H Qhat and the leakage G^{-1} Qhat^H E, so
    each trial draws them in their exact joint law (:func:`gram_law`,
    :func:`sample_gram`; the phase enters only through the whitened mean
    m = L^{-1} sqrt(M) mu^H and the bias row b = sqrt(M) mu B, formed once
    per call) and evaluates
        tau_overhead * log2(1 + p / (p sum_i |a_k^H e_i|^2 + sigma2 |a_k|^2))
    for the ZF receiver A = Qhat G^{-1}.  G is never formed or factored: a
    Sherman-Morrison root V with V V^H = G^{-1}, built from the inverse of
    the Bartlett factor (:func:`zf_terms`), gives both terms, exactly in
    law.  The cost per trial is O(K^3), independent of M and N.  Chunk c of
    trials draws from the substream (seed, c).  A trial is singular when
    its Bartlett factor has a diagonal entry that is not positive or its
    rates are not finite; then its whole chunk is redrawn from
    (seed, c, attempt), at most ``_MAX_RESAMPLE`` times.  Trials are
    i.i.d., so requiring a regular chunk leaves the law of each trial
    unchanged.  Results are bit-identical for a given seed.  This is the
    one-phase call of :func:`exact_rates_mc`, which runs the chunk loop.
    """
    (result,) = exact_rates_mc(config, [phase], trials, seed)
    if isinstance(result, NumericalError):
        raise result
    return result
