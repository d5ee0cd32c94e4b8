import math
import tracemalloc

import numpy as np
import pytest

import riszf.rate as rate_module
from riszf.channel import PhaseShifts, aggregated_mean, build_los, mean_row, sample_channels
from riszf.config import default_profile
from riszf.errors import ConfigError, NumericalError
from riszf.estimation import compute_statistics, random_component_power
from riszf.optimizer import align_phase
from riszf.rate import (MonteCarloRate, exact_rate_mc, exact_rates_mc, phase_independent_bound,
                        rate_lower_bound, power_scaling_limit,
                        required_antennas, rate_lower_bound_snr, upper_bound,
                        gram_law, sample_gram, zf_chunk, zf_terms)

from conftest import random_config, toy_config
from oracle import gram_from_draw, mmse_estimate, qhat_gram_mean


# --- closed-form bounds -------------------------------------------------------

def test_lower_bound_equals_floor_at_delta_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cfg = random_config(rng, delta=0.0)
        ph = PhaseShifts.random(cfg.N, rng)
        lb = rate_lower_bound(cfg, ph)
        floor_bound, _ = phase_independent_bound(cfg)
        np.testing.assert_allclose(lb, floor_bound, rtol=1e-12)


def test_lower_bound_global_phase_invariance(reference_config):
    rng = np.random.default_rng(1)
    ph = PhaseShifts.random(reference_config.N, rng)
    rotated = PhaseShifts(np.exp(1j * 0.77) * ph.v)
    np.testing.assert_allclose(rate_lower_bound(reference_config, ph),
                               rate_lower_bound(reference_config, rotated),
                               rtol=1e-12)


def test_lower_bound_dense_inverse_oracle():
    # two-user system checked against an explicitly inverted 2x2 matrix
    cfg = toy_config(K=2, M=9, N=12, delta=1.7, seed=11)
    ph = PhaseShifts.random(cfg.N, 5)
    los = build_los(cfg)
    stats = compute_statistics(cfg)
    w = (los.hbar * np.sqrt(cfg.alpha)).conj().T @ (ph.v * los.a_n)
    rho = cfg.beta * cfg.delta / (cfg.delta + 1)
    dense = np.linalg.inv(stats.lam + rho * np.outer(w, w.conj()))
    denom = cfg.p * stats.epsilon.sum() + cfg.sigma2
    expected = cfg.tau_overhead * np.log2(
        1 + cfg.p * (cfg.M - cfg.K) / (denom * np.diag(dense).real))
    np.testing.assert_allclose(rate_lower_bound(cfg, ph), expected, rtol=1e-10)


def test_sandwich_chain_random_configs():
    rng = np.random.default_rng(2)
    for _ in range(25):
        cfg = random_config(rng)
        ph = PhaseShifts.random(cfg.N, rng)
        floor_bound, _ = phase_independent_bound(cfg)
        lb = rate_lower_bound(cfg, ph)
        ubg, uba = upper_bound(cfg, ph)
        tol = 1e-10
        assert np.all(floor_bound <= lb * (1 + tol) + 1e-15)
        assert np.all(lb <= ubg * (1 + tol) + 1e-15)
        assert np.all(ubg <= uba * (1 + tol) + 1e-15)


def test_floor_stays_below_lower_bound_many_phases(reference_config):
    floor_bound, _ = phase_independent_bound(reference_config)
    rng = np.random.default_rng(3)
    for _ in range(100):
        lb = rate_lower_bound(reference_config, PhaseShifts.random(reference_config.N, rng))
        assert np.all(floor_bound <= lb * (1 + 1e-10) + 1e-15)


def test_floor_bound_doubling_increment():
    # doubling the element count adds about one bit per user (overhead-scaled)
    floor_bound00 = phase_independent_bound(default_profile(N=200))[0]
    lb400 = phase_independent_bound(default_profile(N=400))[0]
    tau_o = default_profile().tau_overhead
    inc = lb400 - floor_bound00
    np.testing.assert_allclose(inc, tau_o * math.log2(2), rtol=0.10)


def test_floor_bound_approximation_gap():
    for n in (16, 64, 256):
        exact, approx = phase_independent_bound(default_profile(N=n))
        assert np.max(np.abs(approx - exact) / exact) < 0.02


def test_upper_bound_aligned_equality(reference_config):
    for k in (0, 3, reference_config.K - 1):
        ph = align_phase(reference_config, k)
        general, aligned = upper_bound(reference_config, ph)
        assert general[k] == pytest.approx(aligned[k], rel=1e-12)


def test_upper_bound_dominates_many_phases(reference_config):
    rng = np.random.default_rng(4)
    for _ in range(100):
        ph = PhaseShifts.random(reference_config.N, rng)
        lb = rate_lower_bound(reference_config, ph)
        ubg, _ = upper_bound(reference_config, ph)
        assert np.all(lb <= ubg * (1 + 1e-10) + 1e-15)


def test_aligned_upper_bound_doubling_increment():
    # the aligned user's bound gains ~2 bits when N doubles
    tau_o = default_profile().tau_overhead
    _, ub200 = upper_bound(default_profile(N=200), align_phase(default_profile(N=200), 0))
    _, ub400 = upper_bound(default_profile(N=400), align_phase(default_profile(N=400), 0))
    assert ub400[0] - ub200[0] == pytest.approx(2 * tau_o, rel=0.10)


def test_closed_forms_gain_tau_o_per_antenna_doubling():
    # the paper's O(log2 M) law: each doubling of M adds tau_o bits to the
    # lower bound, the floor and the general upper bound of the aligned user.
    # Measured distance to tau_o of the mean increment per doubling:
    # 2.5e-3 over 2^10..2^14, then 1.6e-4, 9.9e-6 and 6.2e-7 over the next
    # three 16x steps up to 2^26; the tolerance 5e-4 is 3x the 2^14..2^18 margin
    tau_o = default_profile().tau_overhead
    rates = {}
    for e in (14, 18, 22, 26):
        cfg = default_profile(N=256, M=2**e)
        phase = align_phase(cfg, 0)
        rates[e] = np.array([rate_lower_bound(cfg, phase)[0],
                             phase_independent_bound(cfg)[0][0],
                             upper_bound(cfg, phase)[0][0]])
    for lo, hi in ((14, 18), (18, 22), (22, 26)):
        increment = (rates[hi] - rates[lo]) / (hi - lo)
        np.testing.assert_allclose(increment, tau_o, rtol=0, atol=5e-4)


def test_closed_forms_gain_two_tau_o_per_element_doubling():
    # the paper's O(log2 N^2) law: each doubling of N adds 2 tau_o bits to the
    # lower bound and both upper bounds of the aligned user, and tau_o to the
    # floor of every user.  Odd exponents give non-square grids.  Measured
    # over N = 2^15 ... 2^24: LB 1.91830-1.91920 per doubling, UBs
    # 1.91831-1.91837 (2 tau_o = 1.91837), the floor within 5.9e-5 of tau_o;
    # the tolerances 2e-3 and 1.5e-4 are ~2.5x the largest distances
    tau_o = default_profile().tau_overhead
    previous = None
    for e in range(15, 25):
        cfg = default_profile(N=2**e)
        phase = align_phase(cfg, 0)
        general, aligned = upper_bound(cfg, phase)
        rates = np.array([rate_lower_bound(cfg, phase)[0], general[0], aligned[0]])
        floor_bound = phase_independent_bound(cfg)[0]
        if previous is not None:
            np.testing.assert_allclose(rates - previous[0], 2 * tau_o, rtol=0, atol=2e-3)
            np.testing.assert_allclose(floor_bound - previous[1], tau_o, rtol=0, atol=1.5e-4)
        previous = rates, floor_bound


def test_aligned_mc_rate_gains_two_tau_o_per_element_doubling():
    # the same law for the Monte-Carlo rate of the aligned user, 2000 trials
    # at seed 0 for N = 2^12 ... 2^22 in steps of 4x; measured |z| <= 0.5
    tau_o = default_profile().tau_overhead
    previous = None
    for e in range(12, 23, 2):
        cfg = default_profile(N=2**e)
        mc = exact_rate_mc(cfg, align_phase(cfg, 0), 2000, 0)
        rate, se = mc.rates[0], mc.std_errors[0]
        if previous is not None:
            z = (rate - previous[0] - 2 * 2 * tau_o) / math.hypot(se, previous[1])
            assert abs(z) < 3.0
        previous = rate, se


def test_power_scaling_gap_falls_as_one_over_n():
    # at p = E_u / N the lower bound approaches its limit as 1/N, for the
    # identity and the aligned phase, and at the prime N = 1000003, whose grid
    # is (1, N).  The largest relative rate gap times N measured
    # 4.18698-4.18758; the tolerance 1.5e-3 is ~3x the largest distance to 4.1875
    e_u = 10.0
    for n in (2**16, 2**20, 2**24, 1000003):
        cfg = default_profile(N=n).replace(p=e_u / n)
        for phase in (PhaseShifts.identity(n), align_phase(cfg, 0)):
            limit = cfg.tau_overhead * np.log2(1.0 + power_scaling_limit(cfg, phase, e_u)[0])
            gap = np.max(np.abs(rate_lower_bound(cfg, phase) - limit) / limit)
            assert abs(gap * n - 4.1875) < 1.5e-3, (n, gap * n)


def test_lower_bound_monotone_in_m_and_p(reference_config):
    ph = PhaseShifts.identity(reference_config.N)
    base = rate_lower_bound(reference_config, ph)
    for m in (80, 96, 128):
        nxt = rate_lower_bound(reference_config.replace(M=m), ph)
        assert np.all(nxt >= base - 1e-12)
        base = nxt
    base = rate_lower_bound(reference_config, ph)
    for scale in (1.5, 2.25, 4.0):
        nxt = rate_lower_bound(reference_config.replace(p=reference_config.p * scale), ph)
        assert np.all(nxt >= base - 1e-12)
        base = nxt


# --- conventional baseline ------------------------------------------------------

def _ris_off_rates(config):
    """Per-user exact floor bound with the RIS switched off (alpha = beta = 0)."""
    return phase_independent_bound(config.replace(alpha=np.zeros(config.K), beta=0.0))[0]


def test_ris_off_floor_equals_lower_bound():
    cfg = toy_config().replace(alpha=np.zeros(3), beta=0.0)
    ph = PhaseShifts.identity(cfg.N)
    floor_bound, _ = phase_independent_bound(cfg)
    np.testing.assert_allclose(floor_bound, rate_lower_bound(cfg, ph), rtol=1e-12)


def test_ris_off_power_scaling_limit():
    cfg = default_profile()
    e_u = 1.0
    m = 10**8
    scaled = cfg.replace(M=m, p=e_u / math.sqrt(m))
    limit = cfg.tau_overhead * np.log2(
        1 + cfg.tau * e_u**2 * cfg.gamma**2 / cfg.sigma2**2)
    np.testing.assert_allclose(_ris_off_rates(scaled), limit, rtol=1e-3)


def test_ris_off_rate_vanishes_at_low_power():
    cfg = toy_config(K=3, M=4)
    rates = [_ris_off_rates(cfg.replace(p=p)).max() for p in (1e-6, 1e-8, 1e-10)]
    assert rates[0] > rates[1] > rates[2]
    assert rates[-1] < 1e-6


def test_delta_sweep_approaches_no_ris():
    cfg = default_profile(delta=1e12)
    floor_bound, _ = phase_independent_bound(cfg)
    np.testing.assert_allclose(floor_bound, _ris_off_rates(cfg), rtol=1e-3)


# --- power scaling limit ---------------------------------------------------------

def test_power_scaling_limit_delta_zero_equality():
    cfg = toy_config(delta=0.0)
    ph = PhaseShifts.random(cfg.N, 7)
    limit, bound = power_scaling_limit(cfg, ph, 5.0)
    np.testing.assert_allclose(limit, bound, rtol=1e-12)


def test_power_scaling_limit_two_user_scalar_oracle():
    # 2x2 closed form: [Xi^{-1}]_11 = (x + c|w2|^2/N) / det
    cfg = toy_config(K=2, M=9, N=8, delta=2.0, seed=13)
    ph = PhaseShifts.random(cfg.N, 3)
    e_u = 4.0
    los = build_los(cfg)
    w = (los.hbar * np.sqrt(cfg.alpha)).conj().T @ (ph.v * los.a_n)
    a = cfg.alpha * cfg.beta / (cfg.delta + 1)
    x = a**2 / (a + cfg.sigma2 / (cfg.tau * e_u))
    c = cfg.beta * cfg.delta / (cfg.delta + 1) / cfg.N
    det = (x[0] + c * abs(w[0])**2) * (x[1] + c * abs(w[1])**2) \
        - c**2 * abs(w[0])**2 * abs(w[1])**2
    pref = e_u * (cfg.M - cfg.K) / (
        sum(e_u / (cfg.tau * e_u / cfg.sigma2 + (cfg.delta + 1) / (cfg.alpha[i] * cfg.beta))
            for i in range(2)) + cfg.sigma2)
    expected = pref * det / np.array([x[1] + c * abs(w[1])**2, x[0] + c * abs(w[0])**2])
    limit, _ = power_scaling_limit(cfg, ph, e_u)
    np.testing.assert_allclose(limit, expected, rtol=1e-10)


def test_power_scaling_limit_reached_along_sweep():
    e_u = 10.0
    rates, limits = [], []
    for n in (1000, 10_000, 100_000):
        cfg = default_profile(N=n).replace(p=e_u / n)
        ph = PhaseShifts.identity(n)
        rates.append(np.mean(rate_lower_bound(cfg, ph)))
        limit, _ = power_scaling_limit(cfg, ph, e_u)
        limits.append(np.mean(cfg.tau_overhead * np.log2(1 + limit)))
    gaps = np.abs(np.array(rates) - np.array(limits)) / np.array(limits)
    assert gaps[-1] < 0.02
    assert gaps[0] >= gaps[-1] - 1e-9


def test_power_scaling_limit_rejects_bad_energy(reference_config):
    with pytest.raises(NumericalError):
        power_scaling_limit(reference_config, PhaseShifts.identity(reference_config.N), 0.0)


# --- antenna-count trade-off ------------------------------------------------------

def test_required_antennas_limits(reference_config):
    # overwhelming channel gain leaves only the ZF dimensionality floor
    cfg = reference_config.replace(beta=1.0)
    assert required_antennas(cfg.replace(N=10**12), 100.0, 0) == pytest.approx(cfg.K, rel=1e-6)
    for c0 in (0.0, -1.0):
        with pytest.raises(NumericalError, match="C0 must be positive"):
            required_antennas(cfg, c0, 0)


def test_required_antennas_product_identity(reference_config):
    cfg = reference_config
    c0, k = 25.0, 2
    products = []
    for n in (50, 100, 200, 400):
        m = required_antennas(cfg.replace(N=n), c0, k)
        products.append((m - cfg.K) * (n * cfg.alpha[k] * cfg.beta + cfg.gamma[k]))
    np.testing.assert_allclose(products, products[0], rtol=1e-12)


# --- Monte-Carlo rate ---------------------------------------------------------------

def test_exact_rate_mc_deterministic(reference_config):
    ph = PhaseShifts.identity(reference_config.N)
    a = exact_rate_mc(reference_config, ph, 50, seed=5)
    b = exact_rate_mc(reference_config, ph, 50, seed=5)
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.std_errors, b.std_errors)
    c = exact_rate_mc(reference_config, ph, 50, seed=6)
    assert not np.array_equal(a.rates, c.rates)
    assert isinstance(a, MonteCarloRate)
    assert a.singular_retries == 0
    assert a.sum_rate == pytest.approx(a.rates.sum())


def test_exact_rate_mc_rejects_bad_arguments(reference_config):
    # invalid input, like --trials 0 on the command line: exit 2, not a numerical failure
    ph = PhaseShifts.identity(reference_config.N)
    for trials in (0, -3):
        with pytest.raises(ConfigError, match="trials"):
            exact_rate_mc(reference_config, ph, trials, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        exact_rate_mc(reference_config, ph, 5, seed=-1)
    with pytest.raises(ConfigError, match="phase vector"):
        exact_rate_mc(reference_config, PhaseShifts.identity(reference_config.N + 1), 5, seed=0)


def test_exact_rate_mc_matches_no_ris_closed_form():
    cfg = default_profile(K=4, M=32, N=16).replace(alpha=np.zeros(4), beta=0.0)
    mc = exact_rate_mc(cfg, PhaseShifts.identity(16), 1500, seed=7)
    np.testing.assert_allclose(mc.rates, _ris_off_rates(cfg), rtol=0.05)


def test_exact_rate_mc_single_user_scalar_oracle():
    # perfect CSI through a long pilot phase; the ZF rate reduces to a
    # matched-filter SNR that a scalar simulation reproduces
    cfg = toy_config(K=1, M=8, N=16, delta=1.0, tau=10**6, tau_c=4 * 10**6,
                     p=1e6, sigma2=1.0, seed=15)
    mc = exact_rate_mc(cfg, PhaseShifts.identity(cfg.N), 1500, seed=8)
    mean = aggregated_mean(cfg, PhaseShifts.identity(cfg.N))[:, 0]
    cpow = random_component_power(cfg)[0]
    rng = np.random.default_rng(99)
    vals = np.empty(1500)
    for t in range(1500):
        q = mean + math.sqrt(cpow / 2) * (rng.standard_normal(cfg.M)
                                          + 1j * rng.standard_normal(cfg.M))
        vals[t] = cfg.tau_overhead * math.log2(1 + cfg.p * np.sum(np.abs(q)**2) / cfg.sigma2)
    combined_se = mc.std_errors[0] + vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(mc.rates[0] - vals.mean()) < 3 * combined_se


def test_exact_rate_mc_tracks_lower_bound(reference_config):
    ph = PhaseShifts.identity(reference_config.N)
    mc = exact_rate_mc(reference_config, ph, 800, seed=9)
    lb = rate_lower_bound(reference_config, ph)
    assert np.max(np.abs(mc.rates - lb) / lb) < 0.05


def test_exact_rate_mc_jensen_direction_at_delta_zero():
    cfg = default_profile(delta=0.0)
    ph = PhaseShifts.identity(cfg.N)
    mc = exact_rate_mc(cfg, ph, 2000, seed=10)
    lb = rate_lower_bound(cfg, ph)
    assert np.all(mc.rates >= lb - 3 * mc.std_errors)


def test_floor_lower_and_upper_bounds_ordered(reference_config):
    ph = PhaseShifts.identity(reference_config.N)
    floor_bound, floor_bound_approx = phase_independent_bound(reference_config)
    lower_bound = rate_lower_bound(reference_config, ph)
    ub, ub_aligned = upper_bound(reference_config, ph)
    for bound in (floor_bound, floor_bound_approx, lower_bound, ub, ub_aligned):
        assert bound.shape == (reference_config.K,)
    assert np.all(floor_bound <= lower_bound * (1 + 1e-10))
    assert np.all(lower_bound <= ub * (1 + 1e-10))


def test_rate_lower_bound_snr_positive(reference_config):
    snr = rate_lower_bound_snr(reference_config, PhaseShifts.identity(reference_config.N))
    assert np.all(snr > 0)


def _oracle_mc(config, phase, trials, seed):
    """Per-user mean rate and SE from full ``sample_channels`` draws (dense H2).

    Applies the textbook ZF receiver A = Qhat (Qhat^H Qhat)^{-1} with an
    explicit inverse.
    """
    rates = np.empty((trials, config.K))
    for t in range(trials):
        real = sample_channels(config, phase,
                               np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        qhat, err = mmse_estimate(config, real)
        a = qhat @ np.linalg.inv(qhat.conj().T @ qhat)
        interference = config.p * np.sum(np.abs(a.conj().T @ err) ** 2, axis=1)
        noise = config.sigma2 * np.sum(np.abs(a) ** 2, axis=0)
        rates[t] = config.tau_overhead * np.log2(1.0 + config.p / (interference + noise))
    return rates.mean(axis=0), rates.std(axis=0, ddof=1) / math.sqrt(trials)


def test_batched_mc_matches_dense_oracle_in_distribution():
    # the M x K draw has the distribution of the dense H2 Phi H1 + D draw
    cases = []
    for n in (16, 400, 4096):
        cfg = default_profile(K=4, M=16, N=n)
        cases.append((cfg, align_phase(cfg, 0)))
    cfg = default_profile(K=4, M=16, N=400)
    cases.append((cfg.replace(delta=0.0), PhaseShifts.random(cfg.N, 3)))
    cases.append((cfg.replace(alpha=np.zeros(cfg.K), beta=0.0), PhaseShifts.identity(cfg.N)))
    for i, (cfg, ph) in enumerate(cases):
        mc = exact_rate_mc(cfg, ph, 2000, seed=20 + i)
        oracle, oracle_se = _oracle_mc(cfg, ph, 300, seed=40 + i)
        z = (mc.rates - oracle) / np.sqrt(mc.std_errors**2 + oracle_se**2)
        assert np.max(np.abs(z)) <= 4.0, (cfg.N, cfg.delta, cfg.beta, z)


def _poison_first_draw(monkeypatch, poison):
    """Patch ``sample_gram`` so that ``poison(w, bartlett, z)`` spoils only its first draw;
    returns the trial counts of every draw, a list that the caller may clear."""
    draw = rate_module.sample_gram
    calls = []

    def poisoned(law, rng, trials, work=None):
        w, bartlett, z = draw(law, rng, trials, work)
        calls.append(trials)
        if len(calls) == 1:                   # the chunk's first draw, not its redraw
            poison(w, bartlett, z)
        return w, bartlett, z

    monkeypatch.setattr(rate_module, "sample_gram", poisoned)
    return calls


def test_exact_rate_mc_redraws_singular_trial(monkeypatch):
    # a zeroed Bartlett factor and w leave the rank-one (singular) Gram x x^H
    cfg = toy_config(K=3, M=12, N=16, delta=0.0, seed=3)
    ph = PhaseShifts.identity(cfg.N)

    def singular(w, bartlett, z):
        w[1] = 0.0
        bartlett[1] = 0.0

    calls = _poison_first_draw(monkeypatch, singular)
    a = exact_rate_mc(cfg, ph, 10, seed=4)
    assert calls == [10, 10]                  # the whole chunk is redrawn, once
    calls.clear()
    b = exact_rate_mc(cfg, ph, 10, seed=4)
    assert a.singular_retries == 1
    assert np.all(np.isfinite(a.rates)) and np.all(np.isfinite(a.std_errors))
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.std_errors, b.std_errors)


def test_exact_rate_mc_redraws_trial_with_non_finite_rates(monkeypatch):
    # a NaN in Z leaves the Bartlett factor regular but the trial's rates NaN:
    # that trial's chunk too is redrawn, and counted

    def nan_leakage(w, bartlett, z):
        z[2, 0, 0] = np.nan

    cfg = toy_config(K=3, M=12, N=16, delta=0.5, seed=3)
    calls = _poison_first_draw(monkeypatch, nan_leakage)
    a = exact_rate_mc(cfg, PhaseShifts.identity(cfg.N), 10, seed=4)
    assert calls == [10, 10]
    assert a.singular_retries == 1
    assert np.all(np.isfinite(a.rates)) and np.all(np.isfinite(a.std_errors))


def test_exact_rate_mc_gives_up_on_persistent_singularity(monkeypatch):
    cfg = toy_config(K=3, M=12, N=16, delta=0.0, seed=3)
    draw = rate_module.sample_gram

    calls = []

    def always_zero(law, rng, trials, work=None):
        w, bartlett, z = draw(law, rng, trials, work)
        calls.append(trials)
        w[0] = 0.0
        bartlett[0] = 0.0
        return w, bartlett, z

    monkeypatch.setattr(rate_module, "sample_gram", always_zero)
    with pytest.raises(NumericalError, match="chunk 0: .* stayed singular"):
        exact_rate_mc(cfg, PhaseShifts.identity(cfg.N), 4, seed=5)
    assert calls == [4] * (rate_module._MAX_RESAMPLE + 1)


def test_exact_rate_mc_rejects_underflowed_lambda():
    # at p = 1e-200 the shrinkage weights square to 0, so Lambda is exactly 0
    cfg = default_profile().replace(p=1e-200)
    assert not np.any(compute_statistics(cfg).lam)
    with pytest.raises(NumericalError, match="estimate correlation matrix"):
        exact_rate_mc(cfg, PhaseShifts.identity(cfg.N), 3, seed=0)


def _assert_same_mc(a, b):
    """Two MonteCarloRate results agree bit for bit."""
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.std_errors, b.std_errors)
    assert (a.sum_rate, a.sum_rate_se, a.trials, a.seed, a.singular_retries) == \
        (b.sum_rate, b.sum_rate_se, b.trials, b.seed, b.singular_retries)


def _three_phases(cfg):
    return [PhaseShifts.identity(cfg.N), align_phase(cfg, 0), PhaseShifts.random(cfg.N, 7)]


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_exact_rates_mc_equals_each_phase_alone(trials):
    # the phases share every chunk's draw, and the last one updates the
    # shared P^{-H} in place: none of that may change a bit of any result
    cfg = default_profile(N=64)
    phases = _three_phases(cfg)
    shared = exact_rates_mc(cfg, phases, trials, 11)
    assert len(shared) == len(phases)
    for phase, result in zip(phases, shared):
        _assert_same_mc(result, exact_rate_mc(cfg, phase, trials, 11))


def test_exact_rates_mc_redraws_one_phase_alone(monkeypatch):
    # phase 1's rates are not finite on attempt 0 of chunk 1: it alone is
    # redrawn, from (seed, 1, 1), and the other phases keep the first draw
    cfg = default_profile(N=64)
    phases = _three_phases(cfg)
    alone = [exact_rate_mc(cfg, phase, 130, 11) for phase in phases]
    target, _ = _phase_terms(cfg, gram_law(cfg), phases[1])
    substream, terms = rate_module._substream, rate_module.zf_terms
    keys = []

    def recording(seed, key):
        keys.append(key)
        return substream(seed, key)

    def spoiled(law, chunk, white_mean, bias_row, in_place=False, work=None):
        leakage, rx_norm2 = terms(law, chunk, white_mean, bias_row, in_place, work)
        if keys[-1] == (1,) and np.array_equal(white_mean, target):
            leakage[0, 0, 0] = np.nan
        return leakage, rx_norm2

    monkeypatch.setattr(rate_module, "_substream", recording)
    monkeypatch.setattr(rate_module, "zf_terms", spoiled)
    shared = exact_rates_mc(cfg, phases, 130, 11)
    assert keys == [(0,), (1,), (1, 1), (2,)]
    _assert_same_mc(shared[0], alone[0])
    _assert_same_mc(shared[2], alone[2])
    assert shared[1].singular_retries == 1
    assert np.all(np.isfinite(shared[1].rates))
    assert not np.array_equal(shared[1].rates, alone[1].rates)
    _assert_same_mc(shared[1], exact_rate_mc(cfg, phases[1], 130, 11))


def test_exact_rates_mc_fails_one_phase_alone(monkeypatch):
    # a phase whose rates stay non-finite gets exact_rate_mc's error in place
    # of its result; the others are unchanged
    cfg = default_profile(N=64)
    phases = _three_phases(cfg)
    alone = [exact_rate_mc(cfg, phase, 70, 3) for phase in phases]
    target, _ = _phase_terms(cfg, gram_law(cfg), phases[0])
    terms = rate_module.zf_terms

    def spoiled(law, chunk, white_mean, bias_row, in_place=False, work=None):
        leakage, rx_norm2 = terms(law, chunk, white_mean, bias_row, in_place, work)
        if np.array_equal(white_mean, target):
            leakage[:] = np.nan
        return leakage, rx_norm2

    monkeypatch.setattr(rate_module, "zf_terms", spoiled)
    failed, *rest = exact_rates_mc(cfg, phases, 70, 3)
    assert isinstance(failed, NumericalError)
    assert "chunk 0: Gram matrix stayed singular" in str(failed)
    for result, single in zip(rest, alone[1:]):
        _assert_same_mc(result, single)
    with pytest.raises(NumericalError, match="chunk 0: .* stayed singular"):
        exact_rate_mc(cfg, phases[0], 70, 3)


def test_lower_inverse_matches_dense_inverse():
    # the forward substitution of zf_terms against numpy's LU inverse, on drawn
    # Bartlett factors and on the Cholesky factors of the Grams rebuilt from
    # the same draws, from K = 1 to K = 8
    for cfg in (default_profile(N=400), toy_config(K=3, M=12, N=16, seed=2),
                toy_config(K=1, M=4, N=9, seed=3)):
        ph = PhaseShifts.random(cfg.N, 1)
        w, bartlett, _ = sample_gram(gram_law(cfg), 1, 200)
        gram, _ = gram_from_draw(cfg, ph, w, bartlett)
        for lower in (bartlett, np.linalg.cholesky(gram)):
            dense = np.linalg.inv(lower)
            fwd = rate_module._lower_inverse(lower)
            assert np.all(np.triu(fwd, 1) == 0)
            np.testing.assert_allclose(fwd, dense, rtol=1e-14,
                                       atol=1e-14 * np.abs(dense).max())


def _phase_terms(cfg, law, ph):
    """The whitened mean m and bias row b of ``ph``, formed as exact_rate_mc forms them."""
    r1_mean = math.sqrt(cfg.M) * mean_row(cfg, ph)
    return law.lam_factor_inv @ r1_mean.conj(), r1_mean @ law.bias


def _root_errors(cfg, ph, seed):
    """Per-draw relative errors of the Sherman-Morrison root against the dense Gram.

    ``(V V^H vs G^{-1}, G^{-1} x, rx_norm2 vs the Cholesky path, median |y|^2)``,
    each the worst of 200 trials of one draw; G is rebuilt from the same (w, A).
    """
    law = gram_law(cfg)
    white_mean, bias_row = _phase_terms(cfg, law, ph)
    w, bartlett, z = sample_gram(law, seed, 200)
    chunk = zf_chunk(law, w, bartlett, z)
    v, gram_inv_x = rate_module._zf_root(chunk, white_mean)
    _, rx_norm2 = zf_terms(law, chunk, white_mean, bias_row)
    gram, x = gram_from_draw(cfg, ph, w, bartlett)
    inverse = np.linalg.inv(gram)
    root_err = np.max(np.abs(v @ v.conj().swapaxes(-1, -2) - inverse)
                      / np.abs(inverse).max(axis=(-2, -1), keepdims=True))
    solved = np.linalg.solve(gram, x[:, :, None])
    solve_err = np.max(np.abs(gram_inv_x - solved)
                       / np.abs(solved).max(axis=(-2, -1), keepdims=True))
    chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    cholesky_diag = np.sum(np.abs(chol_inv) ** 2, axis=-2)
    diag_err = np.max(np.abs(rx_norm2 - cholesky_diag) / cholesky_diag)
    # |y|^2 = x^H (P P^H)^{-1} x, the LoS share of G against its Wishart part
    p_root = np.linalg.cholesky(compute_statistics(cfg).lam) @ bartlett
    y2 = np.sum(np.abs(np.linalg.solve(p_root, x[:, :, None])) ** 2, axis=(-2, -1))
    return root_err, solve_err, diag_err, float(np.median(y2))


def test_sherman_morrison_root_matches_dense_gram():
    # V V^H = G^{-1}, G^{-1} x = g / (1 + |y|^2), and rx_norm2 = diag(C^{-H} C^{-1})
    # of the Cholesky path C = chol(G), draw by draw at K = 1, 3 and 8
    for cfg in (toy_config(K=1, M=4, N=9, seed=3), toy_config(K=3, M=12, N=16, seed=2),
                default_profile(N=400)):
        root_err, solve_err, diag_err, _ = _root_errors(cfg, PhaseShifts.random(cfg.N, 1), 5)
        assert root_err < 1e-13 and solve_err < 1e-13, (cfg.K, root_err, solve_err)
        assert diag_err < 1e-12, (cfg.K, diag_err)


def test_sherman_morrison_root_at_strong_los():
    # aligned at N = 1e7 the LoS dominates G: |y|^2 ~ 1e7 and cond(G) ~ 4e8.
    # Measured: V V^H within 6e-16 of G^{-1}; G^{-1} x within 2.0e-12 and
    # rx_norm2 within 3.1e-12 of the dense solve and Cholesky path, both of
    # which lose up to eps cond(G) themselves; the bound is 1e-10
    cfg = default_profile(N=10**7)
    root_err, solve_err, diag_err, y2 = _root_errors(cfg, align_phase(cfg, 0), 5)
    assert y2 > 1e6, y2
    assert root_err < 1e-13, root_err
    assert solve_err < 1e-10 and diag_err < 1e-10, (solve_err, diag_err)


def test_gram_draw_matches_first_moments():
    # E{G} = M (Lambda + rho w w^H) and E{Qhat^H E} = M (U R - Lambda), with G
    # rebuilt densely from the draw (oracle.gram_from_draw) and
    # Qhat^H E = G (G^{-1} Qhat^H E) from the leakage; the diagonal of
    # U R - Lambda is 0 (per-user MMSE), its off-diagonal is not
    cases = [(toy_config(K=3, M=12, N=16, delta=0.7, seed=21), 5),
             (toy_config(K=4, M=6, N=9, delta=3.0, p=0.2, seed=4), 6),
             (default_profile(K=4, M=16, N=400), 7)]
    signal = 0.0
    for cfg, seed in cases:
        ph = PhaseShifts.random(cfg.N, seed)
        law = gram_law(cfg)
        w, bartlett, z = sample_gram(law, seed, 20000)
        leakage, _ = zf_terms(law, zf_chunk(law, w, bartlett, z), *_phase_terms(cfg, law, ph))
        gram, _ = gram_from_draw(cfg, ph, w, bartlett)
        stats = compute_statistics(cfg)
        cross = cfg.M * (stats.kappa[:, None] * stats.cov - stats.lam)
        for samples, expected in ((gram, qhat_gram_mean(cfg, ph)), (gram @ leakage, cross)):
            mean = samples.mean(axis=0)
            se = samples.std(axis=0) / math.sqrt(samples.shape[0])
            assert np.max(np.abs(mean - expected) / se) < 5.0, (cfg.M, cfg.N)
        signal = max(signal, np.max(np.abs(cross) / se))
    # the check bites: some cross moment is far from 0 in units of its SE
    assert signal > 20.0


def test_gram_law_error_root():
    # S_F S_F^H = Sigma_F = R - R U Lambda^{-1} U R; at near-perfect CSI that
    # difference cancels, and the root keeps matching s2 R (R + s2 I)^{-1}
    rng = np.random.default_rng(51)
    cfgs = [random_config(rng) for _ in range(8)]
    cfgs.append(toy_config(K=3, tau=10**6, tau_c=4 * 10**6, p=1e6, sigma2=1.0, seed=15))
    for cfg in cfgs:
        law = gram_law(cfg)
        stats = compute_statistics(cfg)
        cov = stats.cov
        noise = cfg.sigma2 / (cfg.tau * cfg.p)
        sigma_f = law.noise_root_h.conj().T @ law.noise_root_h
        expected = noise * cov @ np.linalg.inv(cov + noise * np.eye(cfg.K))
        np.testing.assert_allclose(sigma_f, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        u = np.diag(stats.kappa)
        direct = cov - cov @ u @ np.linalg.inv(stats.lam) @ u @ cov
        if noise > 1e-6 * np.abs(cov).max():
            np.testing.assert_allclose(sigma_f, direct, rtol=0,
                                       atol=1e-10 * np.abs(direct).max())
        np.testing.assert_allclose(law.bias, np.linalg.inv(stats.lam) @ u @ cov - np.eye(cfg.K),
                                   rtol=0, atol=1e-10)


def _mc_peak(call, cfg):
    """Traced peak of ``call(config)`` on a fresh copy of ``cfg``, after a warm-up call.

    The LoS and statistics are stored per config instance, so each call gets
    a new one and their build stays inside the peak.
    """
    call(cfg.replace())                      # lazy set-up is not part of the peak
    fresh = cfg.replace()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(fresh)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exact_rate_mc_memory_does_not_grow_with_m():
    # per trial only K x K arrays are drawn; M enters through a_M, one M-vector
    peaks = {}
    for m in (64, 4096):
        cfg = default_profile(M=m, N=400)
        phase = PhaseShifts.identity(cfg.N)
        peaks[m] = _mc_peak(lambda c: exact_rate_mc(c, phase, 200, 0), cfg)
    assert peaks[4096] - peaks[64] < 4 * 16 * 4096, peaks


def test_exact_rate_mc_peak_at_default_point():
    # N = 400, 1000 trials: a K x K draw per trial keeps the traced peak below
    # the ~1.0 MB that an M x K draw in chunks of 16 trials takes here
    cfg = default_profile(N=400)
    phase = align_phase(cfg, cfg.K - 1)
    peak = _mc_peak(lambda c: exact_rate_mc(c, phase, 1000, 0), cfg)
    assert peak <= 1.0e6, peak
