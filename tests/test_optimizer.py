import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riszf.channel import PhaseShifts, alignment_response, build_los
from riszf.config import default_profile
from riszf.errors import ConfigError, NumericalError
from riszf.estimation import compute_statistics
from riszf.optimizer import (FractionalProblem, OptTrace, _fvec_norms, _maxmin_from,
                             _maxsum_coeff, _phase_align, _point, _softmin,
                             _surrogate_factors, _weighted_fvec, align_phase, build_problem,
                             fractional_objective, mm_optimize, quantize_phase)
from riszf.harness import resolve_phase
from riszf.rate import exact_rates_mc, rate_lower_bound, rate_lower_bound_snr

from conftest import deadline, random_angle_profile, random_config, toy_config
from oracle import spectral_bounds, surrogate_maxsum


def _sum_step(prob, v):
    """The closed-form sum step of mm_optimize from v."""
    p = _point(prob, v)
    return _phase_align(_maxsum_coeff(prob, p), p.v)


def _min_step(prob, v, mu):
    """The guarded min step of mm_optimize from v."""
    p = _point(prob, v)
    return _maxmin_from(prob, p, *_softmin(p.values, mu), mu)[0].v


def _smoothed_min(values, mu):
    return _softmin(values, mu)[1]


# --- problem assembly -----------------------------------------------------------

def test_problem_identity_with_rate_bound(reference_config):
    # the quadratic-ratio objective reproduces the closed-form SNR
    prob = build_problem(reference_config)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ph = PhaseShifts.random(reference_config.N, rng)
        values = fractional_objective(prob, ph.v)
        expected = np.log1p(rate_lower_bound_snr(reference_config, ph))
        np.testing.assert_allclose(values, expected, rtol=1e-10)


def test_problem_delta_zero_numerator_is_scaled_identity():
    cfg = toy_config(delta=0.0)
    prob = build_problem(cfg)
    np.testing.assert_allclose(prob.num_mat, np.eye(cfg.N) / cfg.N, atol=1e-15)


def test_problem_matrices_structure():
    rng = np.random.default_rng(1)
    for _ in range(5):
        cfg = random_config(rng, K=3, N=16)
        prob = build_problem(cfg)
        assert isinstance(prob, FractionalProblem)
        assert prob.n == cfg.N and prob.k == cfg.K
        np.testing.assert_allclose(prob.num_mat, prob.num_mat.conj().T)
        assert np.linalg.eigvalsh(prob.num_mat).min() >= 1 / cfg.N - 1e-12
        for k in range(cfg.K):
            ck = prob.den_mats[k]
            np.testing.assert_allclose(ck, ck.conj().T)
            scale = np.linalg.norm(ck)
            assert np.linalg.eigvalsh(ck).min() >= -1e-10 * scale


def test_problem_spectral_bounds_dominate():
    cfg = toy_config(K=2, N=12, delta=1.5, seed=3)
    prob = build_problem(cfg)
    for k in range(cfg.K):
        top = np.linalg.eigvalsh(prob.den_mats[k] + prob.num_mat).max()
        assert prob.spectral_bounds[k] >= top - 1e-12 * abs(top)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_stacked_spectral_bounds_equal_the_per_user_loop(k):
    # the MM iteration counts move with any rounding of the bounds, so the
    # stacked eigenproblem must reproduce the per-user one bit for bit
    for n in (16, 64, 128, 256, 400, 4096):
        cfg = default_profile(K=k, N=n)
        assert np.array_equal(build_problem(cfg).spectral_bounds, spectral_bounds(cfg)), n


def _dense_problem(cfg):
    """B and the stacked C_k assembled entry by entry from the scenario statistics.

    Independent of FractionalProblem's factors: this is the direct N x N
    construction, usable as an oracle at small N.
    """
    los = build_los(cfg)
    stats = compute_statistics(cfg)
    g = (los.hbar * np.sqrt(cfg.alpha)).conj().T * los.a_n
    lam_inv = np.linalg.inv(stats.lam)
    z = lam_inv @ g
    rho = cfg.beta * cfg.delta / (cfg.delta + 1.0)
    num = rho * (g.conj().T @ z)
    num[np.diag_indices_from(num)] += 1.0 / cfg.N
    num = 0.5 * (num + num.conj().T)
    scale = ((cfg.p * float(stats.epsilon.sum()) + cfg.sigma2)
             / (cfg.p * (cfg.M - cfg.K)))
    den = np.empty((cfg.K, cfg.N, cfg.N), dtype=complex)
    for k in range(cfg.K):
        ck = scale * (np.real(lam_inv[k, k]) * num - rho * np.outer(np.conj(z[k]), z[k]))
        den[k] = 0.5 * (ck + ck.conj().T)
    return num, den


def _dense_surrogate(num, den, bounds, v):
    """The surrogate's (const, fvec) from dense matrix-vector products."""
    n = v.size
    bv = num @ v
    vbv = float(np.real(np.conj(v) @ bv))
    const = np.empty(den.shape[0])
    fvec = np.empty((den.shape[0], n), dtype=complex)
    for k in range(den.shape[0]):
        cv = den[k] @ v
        vcv = float(np.real(np.conj(v) @ cv))
        omega = 1.0 / vcv
        psi = vbv / (vcv * (vcv + vbv))
        fvec[k] = omega * bv - psi * (cv + bv - bounds[k] * v)
        const[k] = (math.log1p(vbv / vcv) - vbv / vcv
                    - psi * (bounds[k] * n - (vcv + vbv)) - n * psi * bounds[k])
    return const, fvec


def _dense_objective(num, den, v):
    vbv = np.real(np.conj(v) @ num @ v)
    vcv = np.real(np.einsum("i,kij,j->k", np.conj(v), den, v))
    return np.log1p(vbv / vcv)


def test_low_rank_problem_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        cfg = random_config(rng)
        prob = build_problem(cfg)
        num, den = _dense_problem(cfg)

        for k in range(cfg.K):
            top = np.linalg.eigvalsh(den[k] + num).max()
            assert top <= prob.spectral_bounds[k] <= top * (1 + 1e-10)

        for _ in range(3):
            v = PhaseShifts.random(cfg.N, rng).v
            np.testing.assert_allclose(fractional_objective(prob, v),
                                       _dense_objective(num, den, v), rtol=1e-10)
            const, fvec = surrogate_maxsum(v, prob)
            d_const, d_fvec = _dense_surrogate(num, den, prob.spectral_bounds, v)
            np.testing.assert_allclose(const, d_const, rtol=1e-10,
                                       atol=1e-10 * np.abs(d_const).max())
            np.testing.assert_allclose(fvec, d_fvec, rtol=1e-10,
                                       atol=1e-10 * np.abs(d_fvec).max())

            dense_sum = np.exp(1j * np.angle(d_fvec.sum(axis=0)))
            np.testing.assert_allclose(_sum_step(prob, v), dense_sum, atol=1e-9)
            values = _dense_objective(num, den, v)
            weights = np.exp(-cfg.mu * (values - values.min()))
            weights /= weights.sum()
            fbar = weights @ d_fvec
            norms = np.sum(np.abs(d_fvec) ** 2, axis=1)
            valid = 2.0 * cfg.mu * norms.max()
            prox = 2.0 * cfg.mu * max(weights @ norms - np.vdot(fbar, fbar).real, 0.0)
            while True:
                dense_min = np.exp(1j * np.angle(fbar + prox * v))
                after = _smoothed_min(_dense_objective(num, den, dense_min), cfg.mu)
                if prox >= valid or after >= _smoothed_min(values, cfg.mu):
                    break
                prox = min(2.0 * prox, valid) if prox > 0.0 else valid
            np.testing.assert_allclose(_min_step(prob, v, cfg.mu), dense_min, atol=1e-9)


def test_large_n_problem_stays_low_rank():
    # K N^2 complex entries would need ~550 GB here; the factors need ~17 MB
    cfg = default_profile(N=65536)
    start = time.perf_counter()
    prob = build_problem(cfg)
    stored = sum(getattr(prob, f.name).nbytes for f in dataclasses.fields(prob)
                 if isinstance(getattr(prob, f.name), np.ndarray))
    assert stored < 4 * cfg.K * cfg.N * 16
    for objective in ("sum", "min"):
        trace = mm_optimize(cfg, objective=objective, max_iter=5)
        objs = [val for _, val, _ in trace.iterates]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        np.testing.assert_allclose(np.abs(trace.final_v.v), 1.0, atol=1e-9)
    assert time.perf_counter() - start < 10.0


def test_surrogate_factors_match_k_by_n_oracle():
    # the K x K factors against the K x N fvec of surrogate_maxsum: the
    # weighted coefficient and every row norm, for the sum and softmin weights.
    # At K = 1, C_1 is a multiple of I that both forms reach by cancelling B's
    # rank-one part, so they agree only to about eps N v^H B v / ||v||^2.
    rng = np.random.default_rng(12)
    configs = ([random_config(rng) for _ in range(8)]
               + [random_config(rng, delta=0.0), random_config(rng, K=1)])
    for cfg in configs:
        prob = build_problem(cfg)
        for _ in range(3):
            v = PhaseShifts.random(cfg.N, rng).v
            point = _point(prob, v)
            s, r = _surrogate_factors(prob, point)
            _, fvec = surrogate_maxsum(v, prob)
            values = fractional_objective(prob, v)
            softmin = np.exp(-cfg.mu * (values - values.min()))
            for c in (np.ones(cfg.K), softmin / softmin.sum()):
                np.testing.assert_allclose(_weighted_fvec(prob, point, s, r, c), c @ fvec,
                                           rtol=1e-12, atol=1e-12 * np.abs(c @ fvec).max())
            np.testing.assert_allclose(_fvec_norms(prob, point, s, r),
                                       np.sum(np.abs(fvec) ** 2, axis=1), rtol=1e-12)


def test_maxmin_step_memory_is_a_few_vectors():
    # two products by G and O(N) temporaries: no K x N array (K = 8 units here)
    cfg = default_profile(N=65536)
    prob = build_problem(cfg)
    v = PhaseShifts.random(cfg.N, 3).v
    _min_step(prob, v, cfg.mu)             # lazy set-up is not part of the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _min_step(prob, v, cfg.mu)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * cfg.N


# --- surrogate ---------------------------------------------------------------------

def test_surrogate_tangency_and_minorization(reference_config):
    prob = build_problem(reference_config)
    rng = np.random.default_rng(3)
    v0 = PhaseShifts.random(reference_config.N, rng).v
    const, fvec = surrogate_maxsum(v0, prob)
    f0 = fractional_objective(prob, v0)
    np.testing.assert_allclose(const + 2 * np.real(fvec @ np.conj(v0)), f0, atol=1e-10)
    for _ in range(100):
        v = PhaseShifts.random(reference_config.N, rng).v
        surrogate = const + 2 * np.real(fvec @ np.conj(v))
        assert np.all(surrogate <= fractional_objective(prob, v) + 1e-10)


def test_surrogate_coefficients_positive(reference_config):
    # the ratio weights stay positive whenever the numerator form is positive
    prob = build_problem(reference_config)
    rng = np.random.default_rng(4)
    v = PhaseShifts.random(reference_config.N, rng).v
    bv = prob.num_mat @ v
    vbv = float(np.real(np.conj(v) @ bv))
    assert vbv > 0
    for k in range(prob.k):
        cv = prob.den_mats[k] @ v
        vcv = float(np.real(np.conj(v) @ cv))
        omega = 1.0 / vcv
        psi = vbv / (vcv * (vcv + vbv))
        assert omega > 0 and psi > 0


# --- closed-form steps ---------------------------------------------------------------

def test_maxsum_step_argmax_property(reference_config):
    prob = build_problem(reference_config)
    rng = np.random.default_rng(5)
    v0 = PhaseShifts.random(reference_config.N, rng).v
    _, fvec = surrogate_maxsum(v0, prob)
    coeff = fvec.sum(axis=0)
    v1 = _sum_step(prob, v0)
    target = float(np.real(coeff @ np.conj(v1)))
    for _ in range(100):
        u = PhaseShifts.random(reference_config.N, rng).v
        assert target >= float(np.real(coeff @ np.conj(u))) - 1e-12
    # a zero coefficient leaves its entry free, and the step keeps the fallback there
    coeff[:3] = 0.0
    aligned = _phase_align(coeff, v0)
    np.testing.assert_array_equal(aligned[:3], v0[:3])
    np.testing.assert_allclose(aligned[3:], np.exp(1j * np.angle(coeff[3:])), rtol=1e-15)


def test_maxsum_step_monotone(reference_config):
    prob = build_problem(reference_config)
    rng = np.random.default_rng(6)
    for _ in range(10):
        v0 = PhaseShifts.random(reference_config.N, rng).v
        before = fractional_objective(prob, v0).sum()
        after = fractional_objective(prob, _sum_step(prob, v0)).sum()
        assert after >= before - 1e-12


def test_maxsum_fixed_point_aligns_single_user():
    # one user and a dominant LoS link: the optimum focuses the beam on them
    cfg = toy_config(K=1, M=8, N=16, delta=1e6, seed=21)
    trace = mm_optimize(cfg, objective="sum", init=PhaseShifts.random(cfg.N, 12),
                        max_iter=3000, rel_tol=1e-12)
    response = np.abs(alignment_response(cfg, trace.final_v))[0]
    assert response > 0.99 * cfg.N


def test_maxmin_step_weights_and_monotonicity(reference_config):
    prob = build_problem(reference_config)
    mu = reference_config.mu
    rng = np.random.default_rng(7)
    for _ in range(10):
        v0 = PhaseShifts.random(reference_config.N, rng).v
        values = fractional_objective(prob, v0)
        scaled = -mu * values
        scaled -= scaled.max()
        weights = np.exp(scaled)
        weights /= weights.sum()
        assert weights.sum() == pytest.approx(1.0)
        assert np.all((weights > 0) & (weights < 1))
        v1 = _min_step(prob, v0, mu)
        before = _smoothed_min(values, mu)
        after = _smoothed_min(fractional_objective(prob, v1), mu)
        assert after >= before - 1e-12


def test_guarded_maxmin_step_never_lowers_smoothed_min():
    # a sharp softmin moves its weights along the step, so the centred
    # curvature alone can lower the objective; the guard must catch every case
    rng = np.random.default_rng(15)
    centred_lowered = 0
    for i in range(12):
        base = random_config(rng) if i % 2 else random_angle_profile(i, N=16)
        cfg = base.replace(mu=1000.0)
        prob = build_problem(cfg)
        v = PhaseShifts.random(cfg.N, rng).v
        for _ in range(40):
            values = fractional_objective(prob, v)
            before = _smoothed_min(values, cfg.mu)
            _, fvec = surrogate_maxsum(v, prob)
            weights = np.exp(-cfg.mu * (values - values.min()))
            weights /= weights.sum()
            fbar = weights @ fvec
            spread = weights @ np.sum(np.abs(fvec) ** 2, axis=1) - np.vdot(fbar, fbar).real
            centred = np.exp(1j * np.angle(fbar + 2.0 * cfg.mu * max(spread, 0.0) * v))
            centred_lowered += _smoothed_min(fractional_objective(prob, centred), cfg.mu) < before
            v = _min_step(prob, v, cfg.mu)
            assert _smoothed_min(fractional_objective(prob, v), cfg.mu) >= before
    assert centred_lowered > 0


@pytest.mark.parametrize("n, floor", [(64, 3.9), (256, 5.25), (1024, 6.6)])
def test_maxmin_escapes_sum_rate_solution(n, floor):
    # started at the sum-rate design the min-rate MM used to stop after one
    # step at 3.517, 4.869 and 6.247 nats, reporting the sum-rate design
    cfg = default_profile(N=n)
    prob = build_problem(cfg)
    start = mm_optimize(cfg, objective="sum").final_v
    trace = mm_optimize(cfg, objective="min", init=start)
    assert fractional_objective(prob, trace.final_v.v).min() >= floor


def test_maxmin_symmetric_two_user_problem():
    # mirrored geometry and equal powers: the fair point serves both equally
    cfg = toy_config(K=2, M=10, N=32, delta=3.0, seed=0,
                     alpha=[1.0, 1.0], gamma=[0.8, 0.8])
    angles = np.array([[0.6, 1.1], [-0.6, 1.1]])
    cfg = cfg.replace(user_ris_angles=angles, ris_aod=(0.0, 0.9))
    trace = mm_optimize(cfg, objective="min", max_iter=300)
    rates = rate_lower_bound(cfg, trace.final_v)
    assert abs(rates[0] - rates[1]) / rates.min() < 0.01


def test_objective_global_phase_invariance(reference_config):
    prob = build_problem(reference_config)
    rng = np.random.default_rng(14)
    v = PhaseShifts.random(reference_config.N, rng).v
    for c in (0.3, 1.9, np.pi):
        np.testing.assert_allclose(fractional_objective(prob, np.exp(1j * c) * v),
                                   fractional_objective(prob, v), rtol=1e-12)


def test_smoothed_min_lower_bounds_min():
    values = np.array([1.0, 1.4, 3.0])
    for mu in (1.0, 5.0, 25.0):
        assert _smoothed_min(values, mu) <= values.min()
        assert _smoothed_min(values, mu) >= values.min() - math.log(values.size) / mu


# --- full optimizer --------------------------------------------------------------------

@pytest.mark.parametrize("objective", ["sum", "min"])
def test_mm_optimize_monotone_trace(objective, reference_config):
    trace = mm_optimize(reference_config, objective=objective, max_iter=120)
    objs = [val for _, val, _ in trace.iterates]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
    assert isinstance(trace, OptTrace)
    assert objs[-1] >= objs[0]
    np.testing.assert_allclose(np.abs(trace.final_v.v), 1.0, atol=1e-9)


def test_mm_optimize_monotone_random_inits(reference_config):
    rng = np.random.default_rng(8)
    for _ in range(5):
        init = PhaseShifts.random(reference_config.N, rng)
        trace = mm_optimize(reference_config, objective="sum", init=init, max_iter=60)
        objs = [val for _, val, _ in trace.iterates]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))


def test_mm_optimize_counts_curvature_doublings():
    # at a sharp softmin the guard of the min step fires; the sum step has none
    rng = np.random.default_rng(16)
    doublings = 0
    for i in range(6):
        base = random_config(rng) if i % 2 else random_angle_profile(i, N=16)
        cfg = base.replace(mu=1000.0)
        trace = mm_optimize(cfg, objective="min", init=PhaseShifts.random(cfg.N, rng),
                            max_iter=100)
        doublings += trace.curvature_doublings
        trace = mm_optimize(cfg, objective="sum", init=PhaseShifts.random(cfg.N, rng),
                            max_iter=100)
        assert trace.curvature_doublings == 0
    assert doublings > 0


def test_mm_optimize_improves_over_identity(reference_config):
    base = rate_lower_bound(reference_config,
                                PhaseShifts.identity(reference_config.N)).sum()
    trace = mm_optimize(reference_config, objective="sum")
    assert rate_lower_bound(reference_config, trace.final_v).sum() >= base - 1e-12


def test_mm_optimize_converges_on_sum(reference_config):
    trace = mm_optimize(reference_config, objective="sum", rel_tol=1e-8)
    assert trace.converged
    assert trace.iterations < 500


def test_objective_rejects_a_nan_denominator(reference_config):
    # a NaN v^H C_k v fails every comparison, so a check for <= 0 let it
    # through and f_k came back NaN; every form that is not > 0 must raise
    cfg = reference_config
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not positive"):
        fractional_objective(build_problem(cfg), np.full(cfg.N, np.nan + 0j))


def test_mm_optimize_rejects_bad_arguments(reference_config):
    with pytest.raises(ConfigError):
        mm_optimize(reference_config, objective="max")
    with pytest.raises(ConfigError):
        mm_optimize(reference_config, init=PhaseShifts.identity(3))


def test_min_objective_fails_when_surrogate_norms_overflow():
    # at p = 1e300 the surrogate norms of the identity start overflow, so the
    # guard's valid constant 2 mu max_k ||f_k||^2 is not finite; the guard
    # loop of _maxmin_from used to spin forever there
    cfg = default_profile(N=16).replace(p=1e300)
    with deadline(20), np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="surrogate norms are not finite"):
        mm_optimize(cfg, "min", max_iter=5)


@pytest.mark.parametrize("n, measured", [(64, 0.9870), (256, 0.9916), (1024, 0.9988)])
def test_aligning_to_any_user_nears_the_max_sum_rate(n, measured):
    # the abstract's last claim: aligning the RIS to an arbitrary user comes
    # close to the maximum sum rate.  At default_profile(N), with the sum MM
    # started from the best aligned phase, aligning to the worst of the 8
    # users reaches 0.98697, 0.99156 and 0.99880 of the MM's sum lower bound;
    # the margin is 0.002 below those
    cfg = default_profile(N=n)
    aligned = [float(rate_lower_bound(cfg, align_phase(cfg, k)).sum()) for k in range(cfg.K)]
    trace = mm_optimize(cfg, "sum", init=align_phase(cfg, int(np.argmax(aligned))))
    designed = float(rate_lower_bound(cfg, trace.final_v).sum())
    assert max(aligned) <= designed
    assert min(aligned) / designed >= measured - 0.002, min(aligned) / designed


@pytest.mark.parametrize("n", [64, 128, 256])
def test_aligning_to_any_user_nears_the_max_mc_sum_rate(n):
    # the same claim on the Monte-Carlo rate, not only on its lower bound:
    # the MM design (case 5) against the phases aligned to the farthest user
    # (case 2), on shared draws.  Measured at seeds 0-2: the gap is 0.51-0.76
    # bits, 0.68-1.31 % of case 5, with a combined SE of 0.027-0.029
    cfg = default_profile(N=n)
    farthest = int(np.argmax(cfg.user_ris_dist))
    designed, _ = resolve_phase(cfg, "case5_maxsum", np.random.default_rng(n))
    aligned_mc, designed_mc = exact_rates_mc(cfg, [align_phase(cfg, farthest), designed], 2000, n)
    gap = designed_mc.sum_rate - aligned_mc.sum_rate
    se = math.hypot(designed_mc.sum_rate_se, aligned_mc.sum_rate_se)
    assert -3.0 * se <= gap <= 0.02 * designed_mc.sum_rate + 3.0 * se, (gap, se)


# --- alignment and quantization ------------------------------------------------------

def test_align_phase_exact_response(reference_config):
    for k in range(reference_config.K):
        ph = align_phase(reference_config, k)
        resp = alignment_response(reference_config, ph)
        assert resp[k].real == pytest.approx(reference_config.N, rel=1e-12)
        assert abs(resp[k].imag) < 1e-9 * reference_config.N
        others = np.abs(np.delete(resp, k))
        assert np.all(others < reference_config.N - 1e-6)


def test_align_phase_single_element():
    cfg = toy_config(K=2, M=6, N=1, seed=30)
    ph = align_phase(cfg, 0)
    assert abs(ph.v[0]) == pytest.approx(1.0)
    resp = alignment_response(cfg, ph)
    assert resp[0].real == pytest.approx(1.0, rel=1e-12)


def test_align_phase_index_validation(reference_config):
    with pytest.raises(ConfigError):
        align_phase(reference_config, reference_config.K)
    with pytest.raises(ConfigError):
        align_phase(reference_config, -1)


def test_quantize_high_resolution_is_identity():
    rng = np.random.default_rng(9)
    ph = PhaseShifts.random(32, rng)
    quantized = quantize_phase(ph, 30)
    err = np.angle(quantized.phi_diag * np.conj(ph.phi_diag))
    assert np.max(np.abs(err)) < 1e-8


def test_quantize_one_bit_tie_break():
    ph = PhaseShifts(np.full(4, np.exp(1j * np.pi / 4)))
    quantized = quantize_phase(ph, 1)
    assert np.all(np.isin(quantized.v, [1.0 + 0j, -1.0 + 0j]))
    # exact tie at theta = pi/2 goes to the smaller grid angle (0)
    tie = PhaseShifts.from_angles(np.array([np.pi / 2]))
    assert quantize_phase(tie, 1).phi_diag[0] == pytest.approx(1.0 + 0j)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_quantize_phase_error_bound(bits, seed):
    rng = np.random.default_rng(seed)
    ph = PhaseShifts.random(16, rng)
    quantized = quantize_phase(ph, bits)
    err = np.abs(np.angle(quantized.phi_diag * np.conj(ph.phi_diag)))
    assert np.max(err) <= np.pi / 2**bits + 1e-12
    np.testing.assert_allclose(np.abs(quantized.v), 1.0, atol=1e-12)


def test_quantize_aligned_keeps_beamforming_gain(reference_config):
    for bits in (1, 2, 3):
        ph = quantize_phase(align_phase(reference_config, 0), bits)
        resp = np.abs(alignment_response(reference_config, ph))[0]
        floor = reference_config.N * math.cos(math.pi / 2**bits)
        assert resp >= floor - 1e-9


def test_quantize_rejects_bad_bits(reference_config):
    ph = PhaseShifts.identity(4)
    with pytest.raises(ConfigError):
        quantize_phase(ph, 0)
