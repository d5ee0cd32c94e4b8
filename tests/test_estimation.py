import math

import numpy as np
import pytest

from riszf.channel import (PhaseShifts, aggregated_mean, alignment_response, build_los,
                           sample_channels)
from riszf.errors import NumericalError
from riszf.estimation import (ChannelStatistics, compute_statistics, hermitian_inverse,
                              random_component_power)
from riszf.optimizer import build_problem

from conftest import random_config, toy_config
from oracle import mmse_estimate, qhat_gram_mean


def _statistics_configs(reference_config):
    rng = np.random.default_rng(31)
    return [reference_config, *(random_config(rng) for _ in range(6)),
            random_config(rng, delta=0.0)]


def test_statistics_ranges(reference_config):
    for cfg in _statistics_configs(reference_config):
        stats = compute_statistics(cfg)
        assert np.all((stats.kappa > 0) & (stats.kappa < 1))
        assert np.all(stats.epsilon > 0)
        noise_over_gain = cfg.sigma2 / (cfg.tau * cfg.p)
        cpow = random_component_power(cfg)
        assert np.all(stats.epsilon <= np.minimum(cpow, noise_over_gain) + 1e-30)
        # Hermitian positive definite
        np.testing.assert_allclose(stats.lam, stats.lam.conj().T)
        assert np.linalg.eigvalsh(stats.lam).min() > 0
        # the row covariance and the steering Gram are Hermitian positive semidefinite
        for mat in (stats.cov, stats.gram):
            np.testing.assert_array_equal(mat, mat.conj().T)
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() >= -1e-12 * eig.max()


def test_statistics_diagonal_closed_form(reference_config):
    for cfg in _statistics_configs(reference_config):
        stats = compute_statistics(cfg)
        cpow = random_component_power(cfg)
        noise = cfg.sigma2 / (cfg.tau * cfg.p)
        assert stats.noise == noise
        np.testing.assert_allclose(np.diag(stats.lam).real,
                                   (cpow + noise) * stats.kappa**2, rtol=1e-13)
        np.testing.assert_allclose(np.diag(stats.lam).real, cpow**2 / (cpow + noise),
                                   rtol=1e-12)
        # Lambda = U (R + noise I) U, U = diag(kappa)
        u = np.diag(stats.kappa)
        np.testing.assert_allclose(stats.lam, u @ (stats.cov + noise * np.eye(cfg.K)) @ u,
                                   rtol=1e-12)
        sinr_prefactor = cfg.p * (cfg.M - cfg.K) / (cfg.p * stats.epsilon.sum() + cfg.sigma2)
        assert 1.0 / stats.scale == pytest.approx(sinr_prefactor, rel=1e-12)
        np.testing.assert_array_equal(build_problem(cfg).gram, stats.gram)


def test_statistics_ris_off_matches_conventional():
    cfg = toy_config().replace(alpha=np.zeros(3), beta=0.0)
    stats = compute_statistics(cfg)
    snr = cfg.tau * cfg.p / cfg.sigma2
    np.testing.assert_allclose(stats.epsilon, cfg.gamma / (1 + snr * cfg.gamma), rtol=1e-13)


def test_statistics_error_saturates_for_large_n():
    cfg = toy_config().replace(N=10**9)
    stats = compute_statistics(cfg)
    ceiling = cfg.sigma2 / (cfg.tau * cfg.p)
    np.testing.assert_allclose(stats.epsilon, ceiling, rtol=1e-6)


def test_statistics_offdiagonal_brute_force():
    # assemble the correlation matrix by explicit matrix products
    cfg = toy_config(K=3, N=8, delta=2.0, seed=5)
    los = build_los(cfg)
    stats = compute_statistics(cfg)
    h1 = los.hbar * np.sqrt(cfg.alpha)
    ups = np.diag(stats.kappa)
    brute = (cfg.beta / (cfg.delta + 1)) * ups @ h1.conj().T @ h1 @ ups \
        + np.diag(cfg.gamma) @ ups**2 \
        + cfg.sigma2 / (cfg.tau * cfg.p) * ups**2
    np.testing.assert_allclose(stats.lam, brute, rtol=1e-12)
    # entrywise closed form for the couplings
    for k in range(3):
        for i in range(3):
            if i == k:
                continue
            expected = (cfg.beta / (cfg.delta + 1)) * math.sqrt(cfg.alpha[k] * cfg.alpha[i]) \
                * stats.kappa[k] * stats.kappa[i] * np.vdot(los.hbar[:, k], los.hbar[:, i])
            assert stats.lam[k, i] == pytest.approx(expected, rel=1e-12)


def test_statistics_monotonicity():
    cfg = toy_config(delta=1.0)
    eps = compute_statistics(cfg).epsilon

    def eps_of(**changes):
        return compute_statistics(cfg.replace(**changes)).epsilon

    assert np.all(eps_of(tau=cfg.tau + 2) < eps)
    assert np.all(eps_of(p=cfg.p * 1.5) < eps)
    assert np.all(eps_of(delta=cfg.delta * 2) < eps)
    assert np.all(eps_of(N=cfg.N * 2) > eps)
    assert np.all(eps_of(alpha=cfg.alpha * 1.5) > eps)
    assert np.all(eps_of(beta=cfg.beta * 1.5) > eps)
    assert np.all(eps_of(gamma=cfg.gamma * 1.5) > eps)
    assert np.all(eps_of(sigma2=cfg.sigma2 * 1.5) > eps)


def test_mmse_perfect_pilot_probe():
    # huge pilot energy through a long training phase: estimate converges to
    # the true channel
    cfg = toy_config(K=3, M=12, N=16, tau=10**12, tau_c=10**13)
    real = sample_channels(cfg, PhaseShifts.identity(cfg.N), 5)
    qhat, err = mmse_estimate(cfg, real)
    assert np.linalg.norm(err) / np.linalg.norm(real.q) < 1e-4


def test_mmse_pure_los_error_floor():
    # delta -> inf leaves only the direct-link uncertainty
    cfg = toy_config(K=3, M=16, N=16, delta=1e12, seed=3)
    ph = PhaseShifts.identity(cfg.N)
    snr = cfg.tau * cfg.p / cfg.sigma2
    expected = np.mean(cfg.gamma / (1 + snr * cfg.gamma))
    total = 0.0
    T = 2000
    for t in range(T):
        real = sample_channels(cfg, ph, np.random.SeedSequence(entropy=8, spawn_key=(t,)))
        _, err = mmse_estimate(cfg, real)
        total += np.sum(np.abs(err) ** 2) / (cfg.M * cfg.K)
    assert total / T == pytest.approx(expected, rel=0.05)


def test_mmse_error_power_matches_epsilon():
    cfg = toy_config(K=2, M=8, N=8, delta=0.8, seed=6)
    ph = PhaseShifts.random(cfg.N, 2)
    stats = compute_statistics(cfg)
    T = 10_000
    power = np.empty((T, cfg.K))
    for t in range(T):
        real = sample_channels(cfg, ph, np.random.SeedSequence(entropy=9, spawn_key=(t,)))
        _, err = mmse_estimate(cfg, real)
        power[t] = np.sum(np.abs(err) ** 2, axis=0) / cfg.M
    z = (power.mean(0) - stats.epsilon) / (power.std(0, ddof=1) / math.sqrt(T))
    assert np.all(np.abs(z) < 3.0)


def test_mmse_orthogonality_principle():
    # estimation error is uncorrelated with the (centered) estimate
    cfg = toy_config(K=2, M=6, N=8, delta=1.0, seed=7)
    ph = PhaseShifts.random(cfg.N, 4)
    stats = compute_statistics(cfg)
    mean = aggregated_mean(cfg, ph)
    T = 20_000
    cross = np.zeros((cfg.K, cfg.M, cfg.M), dtype=complex)
    scale = np.zeros(cfg.K)
    for t in range(T):
        real = sample_channels(cfg, ph, np.random.SeedSequence(entropy=10, spawn_key=(t,)))
        qhat, err = mmse_estimate(cfg, real)
        centered = qhat - mean
        for k in range(cfg.K):
            cross[k] += np.outer(err[:, k], centered[:, k].conj())
            scale[k] += np.sum(np.abs(err[:, k]) ** 2) * np.sum(np.abs(centered[:, k]) ** 2)
    for k in range(cfg.K):
        # per-entry standard error of a product of independent zero-mean terms
        se = math.sqrt(scale[k] / T / cfg.M**2) / math.sqrt(T)
        entries = np.abs(cross[k] / T)
        assert np.mean(entries < 3.0 * se) > 0.95
        assert np.max(entries) < 6.0 * se


def test_qhat_gram_mean_matches_monte_carlo():
    cfg = toy_config(K=3, M=16, N=16, delta=1.0, seed=8)
    ph = PhaseShifts.random(cfg.N, 6)
    T = 10_000
    grams = np.empty((T, cfg.K, cfg.K), dtype=complex)
    for t in range(T):
        real = sample_channels(cfg, ph, np.random.SeedSequence(entropy=11, spawn_key=(t,)))
        qhat, _ = mmse_estimate(cfg, real)
        grams[t] = qhat.conj().T @ qhat
    theory = qhat_gram_mean(cfg, ph)
    emp = grams.mean(axis=0)
    se_re = grams.real.std(axis=0, ddof=1) / math.sqrt(T)
    se_im = grams.imag.std(axis=0, ddof=1) / math.sqrt(T)
    # skip roundoff-level entries (diagonal imaginary parts are identically 0)
    floor = 1e-9 * np.abs(theory).max()
    z_re = np.abs(emp.real - theory.real) / np.maximum(se_re, floor)
    z_im = np.abs(emp.imag - theory.imag) / np.maximum(se_im, floor)
    assert z_re.max() < 3.0
    assert z_im.max() < 3.0


def test_mmse_column_formula():
    # column k of the estimate: mean + shrinkage * (observation - mean)
    cfg = toy_config(K=2, M=6, N=4, seed=9)
    ph = PhaseShifts.random(cfg.N, 8)
    real = sample_channels(cfg, ph, 77)
    stats = compute_statistics(cfg)
    mean = aggregated_mean(cfg, ph)
    qhat, err = mmse_estimate(cfg, real)
    for k in range(cfg.K):
        expected = mean[:, k] + stats.kappa[k] * (
            real.q[:, k] - mean[:, k] + real.pilot_noise[:, k])
        np.testing.assert_allclose(qhat[:, k], expected, rtol=1e-12)
    np.testing.assert_array_equal(err, real.q - qhat)


def test_statistics_type():
    stats = compute_statistics(toy_config())
    assert isinstance(stats, ChannelStatistics)


def test_hermitian_inverse_matches_dense_oracle():
    rng = np.random.default_rng(21)
    mats = []
    for k in range(1, 9):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        mats.append(a @ a.conj().T + 0.1 * np.eye(k))
    for _ in range(6):
        cfg = random_config(rng)
        lam = compute_statistics(cfg).lam
        w = np.sqrt(cfg.alpha) * np.conj(alignment_response(cfg, PhaseShifts.random(cfg.N, rng)))
        rho = cfg.beta * cfg.delta / (cfg.delta + 1.0)
        mats += [lam, lam + rho * np.outer(w, np.conj(w))]
    for mat in mats:
        inv = hermitian_inverse(mat, "test")
        oracle = np.linalg.inv(mat)
        assert np.linalg.norm(inv - oracle) <= 1e-12 * np.linalg.norm(oracle)
        np.testing.assert_allclose(np.diag(inv).real, np.diag(oracle).real, rtol=1e-12)


def test_hermitian_inverse_rejects_indefinite_and_nonfinite():
    with pytest.raises(NumericalError, match="indefinite probe"):
        hermitian_inverse(np.diag([1.0, -1.0]).astype(complex), "indefinite probe")
    with pytest.raises(NumericalError, match="nan probe"):
        hermitian_inverse(np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex), "nan probe")
