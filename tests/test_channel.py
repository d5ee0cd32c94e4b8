import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riszf.channel import (ChannelRealization, PhaseShifts, aggregated_mean,
                           alignment_response, build_los, decompose_grid,
                           sample_aggregated, sample_channels, steering_gram, steering_vector)
from riszf.config import default_profile
from riszf.errors import ConfigError
from riszf.estimation import compute_statistics
from riszf.harness import Scenario, run_scenario
from riszf.optimizer import align_phase, build_problem
from riszf.rate import (exact_rate_mc, phase_independent_bound, power_scaling_limit,
                        rate_lower_bound, upper_bound)

from conftest import random_config, toy_config
from oracle import qhat_gram_mean


# --- grid decomposition ------------------------------------------------------

def test_decompose_grid_examples():
    assert decompose_grid(64) == (8, 8)
    assert decompose_grid(7) == (1, 7)
    assert decompose_grid(12) == (3, 4)   # enumeration picks the minimal gap
    assert decompose_grid(1) == (1, 1)


@given(st.integers(min_value=1, max_value=5000))
def test_decompose_grid_minimal_gap(L):
    lx, ly = decompose_grid(L)
    assert lx * ly == L and 1 <= lx <= ly
    best = min(ly_ - lx_ for lx_ in range(1, L + 1) if L % lx_ == 0
               for ly_ in [L // lx_] if lx_ <= ly_)
    assert ly - lx == best


def test_decompose_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        decompose_grid(0)


# --- steering vectors --------------------------------------------------------

def test_steering_single_element():
    np.testing.assert_allclose(steering_vector(1, 0.3, 0.7), [1.0 + 0j])


def test_steering_phase_terms_vanish():
    # sin(az) = 0 and cos(el) = 0 zero out both phase contributions
    v = steering_vector(4, 0.0, np.pi / 2, 0.5)
    np.testing.assert_allclose(v, np.ones(4), atol=1e-12)


def test_steering_matches_scalar_evaluation():
    # element-by-element evaluation with explicit floor/mod arithmetic, on a
    # small grid, a prime length (1 x 7), an odd spacing, and large grids
    cases = [  # (L, L_y, azimuth, elevation, d/lambda)
        (6, 3, np.pi / 3, np.pi / 4, 0.5),
        (7, 7, 1.1, 2.3, 0.5),
        (12, 4, -0.7, 0.9, 0.37),
        (400, 20, 2.9, 1.3, 0.5),
        (4096, 64, 0.4, 2.8, 0.5),
    ]
    for L, ly, az, el, spacing in cases:
        v = steering_vector(L, az, el, spacing)
        expected = []
        for l in range(1, L + 1):
            phase = 2 * np.pi * spacing * (
                math.floor((l - 1) / ly) * math.sin(el) * math.sin(az)
                + ((l - 1) % ly) * math.cos(el)
            )
            expected.append(np.exp(1j * phase))
        assert v.shape == (L,)
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=64),
       st.floats(-6.0, 6.0, allow_nan=False),
       st.floats(-6.0, 6.0, allow_nan=False))
def test_steering_unit_modulus_norm_and_periodicity(L, az, el):
    v = steering_vector(L, az, el)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    assert np.vdot(v, v).real == pytest.approx(L, rel=1e-12)
    np.testing.assert_allclose(v, steering_vector(L, az + 2 * np.pi, el), atol=1e-9)
    np.testing.assert_allclose(v, steering_vector(L, az, el + 2 * np.pi), atol=1e-9)


def test_steering_gram_matches_explicit_vectors():
    rng = np.random.default_rng(12)
    for L in (6, 16, 45, 64):
        angles = np.stack([rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, np.pi, 4)], axis=1)
        h = np.stack([steering_vector(L, az, el) for az, el in angles], axis=1)
        explicit = h.conj().T @ h
        analytic = steering_gram(L, angles)
        np.testing.assert_allclose(analytic, explicit, atol=1e-10 * L)
        np.testing.assert_allclose(np.diag(analytic).real, L, rtol=1e-12)


def test_steering_gram_handles_huge_arrays():
    angles = np.array([[0.4, 1.0], [1.3, 2.1]])
    gram = steering_gram(10**9, angles)
    assert gram.shape == (2, 2)
    assert gram[0, 0].real == pytest.approx(1e9)
    assert abs(gram[0, 1]) < 1e9  # strictly below the Cauchy-Schwarz cap


# --- phase shifts ------------------------------------------------------------

def test_phase_shift_conventions():
    theta = np.array([0.3, -1.2, 2.5])
    ph = PhaseShifts.from_angles(theta)
    np.testing.assert_allclose(ph.v, np.exp(-1j * theta))
    np.testing.assert_allclose(ph.phi_diag, np.exp(1j * theta))
    np.testing.assert_allclose(ph.theta, np.array([0.3, -1.2, 2.5]))
    assert ph.n == 3


def test_phase_shift_validation():
    with pytest.raises(ConfigError):
        PhaseShifts(np.array([1.0, 0.5]))
    with pytest.raises(ConfigError):
        PhaseShifts(np.array([]))
    ident = PhaseShifts.identity(4)
    np.testing.assert_array_equal(ident.v, np.ones(4))


def test_phase_shift_random_seeded():
    a = PhaseShifts.random(16, 5)
    b = PhaseShifts.random(16, 5)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_allclose(np.abs(a.v), 1.0, atol=1e-12)


def test_separable_phase_checks_every_element():
    ident = PhaseShifts.identity(12)
    assert ident.factors is not None and ident.n == 12
    np.testing.assert_array_equal(ident.v, np.ones(12))
    # each factor is within 1e-9 of unit modulus, their products are not
    with pytest.raises(ConfigError):
        PhaseShifts.from_factors(np.full(3, 1.0 + 6e-10), np.full(4, 1.0 + 6e-10))
    with pytest.raises(ConfigError):
        PhaseShifts.from_factors(np.ones(3), np.array([1.0, 1.0, np.nan, 1.0]))
    # moduli that cancel across the axes give a unit-modulus kron
    PhaseShifts.from_factors(np.full(3, 2.0), np.full(4, 0.5))
    with pytest.raises(ConfigError):
        PhaseShifts.from_factors(np.ones(2), np.ones(6))     # not the 3 x 4 grid of 12
    with pytest.raises(ConfigError):
        PhaseShifts.from_factors(np.ones(0), np.ones(4))
    with pytest.raises(AttributeError):
        ident.v = np.ones(12)


def test_separable_v_is_read_only_and_built_on_demand():
    cfg = default_profile(N=4096)
    los = build_los(cfg)
    unit = 16 * cfg.N                        # one complex N-vector
    for k in range(cfg.K):
        phase = align_phase(cfg, k)
        rows, cols = phase.factors
        assert rows.shape == (decompose_grid(cfg.N)[0],) and not rows.flags.writeable
        assert not cols.flags.writeable
        tracemalloc.start()
        try:
            v = phase.v
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert phase.v is v              # kept, not rebuilt
            second = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert first >= unit and second < unit // 16
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
        np.testing.assert_allclose(v, np.conj(los.a_n) * los.hbar[:, k], rtol=1e-12)


def test_separable_response_matches_dense():
    # the (p^H rows_k)(q^H cols_k) form against the dense grid product, for every
    # user, on a prime N (1 x N grid), non-square grids and a square grid
    rng = np.random.default_rng(43)
    for n in (61, 48, 45, 64):
        cfg = random_config(rng, N=n)
        phases = [align_phase(cfg, k) for k in range(cfg.K)] + [PhaseShifts.identity(n)]
        for phase in phases:
            dense = PhaseShifts(phase.v)
            assert dense.factors is None
            np.testing.assert_allclose(alignment_response(cfg, phase),
                                       alignment_response(cfg, dense), rtol=1e-12, atol=1e-12 * n)
        for k in range(cfg.K):
            assert abs(alignment_response(cfg, phases[k])[k]) == pytest.approx(n, rel=1e-12)


def test_alignment_point_allocates_no_n_vector():
    # an aligned or identity sweep point touches only per-axis and K x K arrays:
    # nothing of size N at large N, and nothing of size M (no a_M) at large M
    calls = {                                # a fresh phase has not assembled its v
        "align_phase": lambda c: align_phase(c, 0),
        "identity": lambda c: PhaseShifts.identity(c.N),
        "alignment_response": lambda c: alignment_response(c, align_phase(c, 0)),
        "identity_response": lambda c: alignment_response(c, PhaseShifts.identity(c.N)),
        "rate_lower_bound": lambda c: rate_lower_bound(c, align_phase(c, 0)),
        "upper_bound": lambda c: upper_bound(c, align_phase(c, 0)),
        "power_scaling_limit": lambda c: power_scaling_limit(c, align_phase(c, 0), 10.0),
        "point": lambda c: run_scenario(Scenario(config=c, phase_design="case1_align_nearest",
                                                 trials=64)),
    }
    for cfg in (default_profile(N=65536), default_profile(M=2**22)):
        unit = 16 * max(cfg.M, cfg.N)        # one complex N-vector, then one M-vector
        for call in calls.values():          # lazy set-up is not part of the peak
            call(cfg.replace())
        peaks = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                fresh = cfg.replace()        # the LoS and statistics build is part of the peak
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call(fresh)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        over = {name: peak for name, peak in peaks.items() if peak >= unit}
        assert not over, (cfg.M, cfg.N, over)


# --- LoS geometry -------------------------------------------------------------

def test_build_los_norms_and_rank(reference_config):
    los = build_los(reference_config)
    n, k = reference_config.N, reference_config.K
    assert los.hbar.shape == (n, k)
    np.testing.assert_allclose(np.sum(np.abs(los.hbar) ** 2, axis=0), n, rtol=1e-12)
    a_m = steering_vector(reference_config.M, *reference_config.bs_aoa,
                          reference_config.d_over_lambda)
    assert np.vdot(a_m, a_m).real == pytest.approx(reference_config.M, rel=1e-12)
    # column k is the response toward user k
    for k, (az, el) in enumerate(reference_config.user_ris_angles):
        np.testing.assert_allclose(
            los.hbar[:, k], steering_vector(n, az, el, reference_config.d_over_lambda),
            rtol=0, atol=1e-12)
    # rank one: all 2x2 minors vanish
    h2 = np.outer(a_m, np.conj(los.a_n))
    s = np.linalg.svd(h2, compute_uv=False)
    assert s[1] < 1e-10 * s[0]


def test_build_los_distinct_angles_strict_inequality(reference_config):
    los = build_los(reference_config)
    gram = np.abs(los.hbar.conj().T @ los.hbar)
    n = reference_config.N
    off = gram[~np.eye(reference_config.K, dtype=bool)]
    assert np.all(off < n - 1e-9)


def test_los_and_statistics_computed_once_per_config():
    cfg = toy_config()
    before = repr(cfg), cfg.to_dict()
    los, stats, problem = build_los(cfg), compute_statistics(cfg), build_problem(cfg)
    assert build_los(cfg) is los and compute_statistics(cfg) is stats
    assert build_problem(cfg) is problem
    fresh = cfg.replace()
    assert build_los(fresh) is not los and compute_statistics(fresh) is not stats
    assert build_problem(fresh) is not problem
    np.testing.assert_array_equal(compute_statistics(fresh).lam, stats.lam)
    np.testing.assert_array_equal(build_problem(fresh).g, problem.g)
    # a shared result is read-only, so a caller cannot corrupt later calls
    with pytest.raises(ValueError):
        stats.lam[0, 0] = 0.0
    with pytest.raises(ValueError):
        los.user_rows[0, 0] = 0.0
    with pytest.raises(ValueError):
        problem.g[0, 0] = 0.0
    for value in (*vars(los).values(), *vars(stats).values(), *vars(problem).values()):
        assert not isinstance(value, np.ndarray) or not value.flags.writeable
    # the stored values are not fields: equality, repr and to_dict ignore them
    assert cfg == cfg.replace()
    assert (repr(cfg), cfg.to_dict()) == before


# --- channel sampling ---------------------------------------------------------

def test_sample_channels_deterministic():
    cfg = toy_config()
    ph = PhaseShifts.random(cfg.N, 3)
    a = sample_channels(cfg, ph, 42)
    b = sample_channels(cfg, ph, 42)
    for field in ("h1", "h2", "d", "q", "pilot_noise"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    c = sample_channels(cfg, ph, 43)
    assert not np.array_equal(a.q, c.q)


def test_sample_channels_q_consistency():
    cfg = toy_config()
    ph = PhaseShifts.random(cfg.N, 1)
    real = sample_channels(cfg, ph, 7)
    recon = real.h2 @ (ph.phi_diag[:, None] * real.h1) + real.d
    np.testing.assert_array_equal(recon, real.q)
    assert isinstance(real, ChannelRealization)
    assert real.shape == (cfg.M, cfg.K)


def test_sample_channels_pure_los_limit():
    cfg = toy_config(delta=1e12)
    real = sample_channels(cfg, PhaseShifts.identity(cfg.N), 11)
    los = build_los(cfg)
    a_m = steering_vector(cfg.M, *cfg.bs_aoa, cfg.d_over_lambda)
    target = math.sqrt(cfg.beta) * np.outer(a_m, np.conj(los.a_n))
    rel = np.linalg.norm(real.h2 - target) / np.linalg.norm(target)
    assert rel < 1e-5


def test_sample_channels_ris_off():
    cfg = toy_config().replace(alpha=np.zeros(3), beta=0.0)
    real = sample_channels(cfg, PhaseShifts.identity(cfg.N), 13)
    np.testing.assert_array_equal(real.q, real.d)


def test_sample_channels_direct_link_variance():
    # per-entry variance of the direct channel column matches gamma_k
    cfg = toy_config(K=2, M=10, N=4, seed=4)
    draws = np.stack([sample_channels(cfg, PhaseShifts.identity(4), seed).d
                      for seed in range(10_000)])
    emp = np.mean(np.abs(draws) ** 2, axis=(0, 1))
    np.testing.assert_allclose(emp, cfg.gamma, rtol=0.05)


def test_phase_dimension_mismatch():
    cfg = toy_config()
    with pytest.raises(ConfigError):
        sample_channels(cfg, PhaseShifts.identity(cfg.N + 1), 0)


def test_aggregated_moments_match_distribution():
    # mean and covariance of the aggregated per-user channel: the mean is the
    # deterministic LoS cascade, the covariance is white with the cascaded
    # NLoS power plus the direct-link power
    cfg = toy_config(K=2, M=8, N=8, delta=1.3, seed=2)
    ph = PhaseShifts.random(cfg.N, 9)
    mean = aggregated_mean(cfg, ph)
    T = 20_000
    qs = np.stack([sample_channels(cfg, ph, np.random.SeedSequence(entropy=100, spawn_key=(t,))).q
                   for t in range(T)])
    cpow = cfg.N * cfg.alpha * cfg.beta / (cfg.delta + 1) + cfg.gamma
    for k in range(cfg.K):
        emp_mean = qs[:, :, k].mean(axis=0)
        se = np.sqrt(cpow[k] / 2 / T)
        assert np.max(np.abs(emp_mean.real - mean[:, k].real)) < 4.5 * se
        assert np.max(np.abs(emp_mean.imag - mean[:, k].imag)) < 4.5 * se
        centered = qs[:, :, k] - mean[:, k]
        cov = centered.conj().T @ centered / T
        # diagonal: per-antenna power; off-diagonal: uncorrelated antennas
        diag_se = cpow[k] / math.sqrt(T)
        assert np.max(np.abs(np.diag(cov).real - cpow[k])) < 4.5 * diag_se
        off = cov[~np.eye(cfg.M, dtype=bool)]
        assert np.max(np.abs(off)) < 5.0 * diag_se


def _assert_row_covariance(rows, cov, max_se):
    """Sample covariance of i.i.d. rows (n x K) equals ``cov`` entrywise within ``max_se`` SE."""
    n = rows.shape[0]
    emp = rows.conj().T @ rows / n
    diag = np.real(np.diag(cov))
    se = np.sqrt(np.outer(diag, diag) / n)    # SE of a mean of conj(r_i) r_j
    assert np.max(np.abs(emp - cov) / se) < max_se
    return se


def test_row_covariance_matches_both_samplers():
    # the rows of Q - mean are i.i.d. CN(0, R), for the dense draw and the M x K draw
    cfg = toy_config(K=3, M=8, N=8, delta=0.7, seed=21)
    ph = PhaseShifts.random(cfg.N, 5)
    cov = compute_statistics(cfg).cov
    h1 = build_los(cfg).hbar * np.sqrt(cfg.alpha)
    dense = cfg.beta / (cfg.delta + 1.0) * (h1.conj().T @ h1) + np.diag(cfg.gamma)
    np.testing.assert_allclose(cov, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
    mean = aggregated_mean(cfg, ph)

    T = 5000
    q, pilot_noise = sample_aggregated(cfg, mean, np.linalg.cholesky(cov), 123, T)
    assert q.shape == pilot_noise.shape == (T, cfg.M, cfg.K)
    centered = (q - mean).reshape(-1, cfg.K)
    se = _assert_row_covariance(centered, cov, 5.0)
    # the correlation between users is large enough for the check to bite
    off = ~np.eye(cfg.K, dtype=bool)
    assert np.max(np.abs(cov[off]) / se[off]) > 20.0
    mean_se = np.sqrt(np.real(np.diag(cov)) / T)
    assert np.max(np.abs((q - mean).mean(axis=0)) / mean_se) < 5.0
    noise_power = cfg.sigma2 / (cfg.tau * cfg.p)
    assert np.mean(np.abs(pilot_noise) ** 2) == pytest.approx(noise_power, rel=0.02)

    dense_rows = np.concatenate([
        sample_channels(cfg, ph, np.random.SeedSequence(entropy=7, spawn_key=(t,))).q - mean
        for t in range(1500)])
    _assert_row_covariance(dense_rows, cov, 5.0)


def test_alignment_response_bounds(reference_config):
    ph = PhaseShifts.random(reference_config.N, 17)
    resp = alignment_response(reference_config, ph)
    assert resp.shape == (reference_config.K,)
    assert np.all(np.abs(resp) <= reference_config.N * (1 + 1e-12))


def test_aggregated_mean_matches_dense_oracle():
    # the factored mean against the dense rank-one LoS product a_M a_n^H Phi H1
    rng = np.random.default_rng(31)
    configs = [random_config(rng) for _ in range(6)]
    configs.append(configs[0].replace(delta=0.0))
    configs.append(configs[1].replace(alpha=np.zeros(configs[1].K), beta=0.0))
    for cfg in configs:
        ph = PhaseShifts.random(cfg.N, rng)
        los = build_los(cfg)
        scale = math.sqrt(cfg.beta * cfg.delta / (cfg.delta + 1.0))
        a_m = steering_vector(cfg.M, *cfg.bs_aoa, cfg.d_over_lambda)
        dense = scale * (np.outer(a_m, np.conj(los.a_n))
                         @ (ph.phi_diag[:, None] * (los.hbar * np.sqrt(cfg.alpha))))
        mean = aggregated_mean(cfg, ph)
        assert mean.shape == (cfg.M, cfg.K)
        np.testing.assert_allclose(mean, dense, rtol=1e-12,
                                   atol=1e-12 * np.abs(dense).max())


def test_los_closed_forms_allocate_no_mxn_array():
    cfg = default_profile(N=65536)
    limit = 6 * cfg.K * cfg.N * 16           # one dense M x N array is 64 MiB here
    phase = PhaseShifts.identity(cfg.N)
    calls = {
        "build_los": build_los,
        "align_phase": lambda c: align_phase(c, 0),
        "rate_lower_bound": lambda c: rate_lower_bound(c, phase),
        "upper_bound": lambda c: upper_bound(c, phase),
        "phase_independent_bound": phase_independent_bound,
        "power_scaling_limit": lambda c: power_scaling_limit(c, phase, 10.0),
        "build_problem": build_problem,
        "exact_rate_mc": lambda c: exact_rate_mc(c, phase, 200, 0),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            fresh = cfg.replace()            # the LoS and statistics build is part of the peak
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(fresh)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(peak < limit for peak in peaks.values()), peaks


def test_factored_los_matches_dense_oracle():
    # the per-axis forms against the dense hbar / a_n, on a prime N (1 x N grid),
    # non-square grids, a square grid and random sizes
    rng = np.random.default_rng(41)
    configs = [random_config(rng, N=n) for n in (61, 48, 45, 64, None, None)]
    for cfg in configs:
        los = build_los(cfg)
        hbar, a_n = los.hbar, los.a_n
        spacing = cfg.d_over_lambda
        assert hbar.shape == (cfg.N, cfg.K) and a_n.shape == (cfg.N,)
        np.testing.assert_allclose(a_n, steering_vector(cfg.N, *cfg.ris_aod, spacing),
                                   rtol=1e-12)
        a_m = steering_vector(cfg.M, *cfg.bs_aoa, spacing)
        for k, (az, el) in enumerate(cfg.user_ris_angles):
            np.testing.assert_allclose(hbar[:, k], steering_vector(cfg.N, az, el, spacing),
                                       rtol=1e-12)
            aligned = align_phase(cfg, k)
            np.testing.assert_allclose(aligned.v, np.conj(a_n) * hbar[:, k], rtol=1e-12)
        scale = math.sqrt(cfg.beta * cfg.delta / (cfg.delta + 1.0))
        for ph in (PhaseShifts.random(cfg.N, rng), align_phase(cfg, cfg.K - 1)):
            dense = np.conj(ph.v * a_n) @ hbar
            np.testing.assert_allclose(alignment_response(cfg, ph), dense, rtol=1e-12,
                                       atol=1e-12 * cfg.N)
            dense_mean = scale * np.outer(a_m, np.sqrt(cfg.alpha) * dense)
            np.testing.assert_allclose(aggregated_mean(cfg, ph), dense_mean, rtol=1e-12,
                                       atol=1e-12 * np.abs(dense_mean).max())


def test_los_consumers_allocate_no_nxk_array():
    # the LoS is kept as per-axis factors, so every consumer needs
    # O(N + K (L_x + L_y)) memory; one dense N x K array is K = 8 units here
    cfg = default_profile(N=65536)
    unit = 16 * cfg.N                        # one complex N-vector
    phase = PhaseShifts.identity(cfg.N)
    calls = {
        "build_los": (build_los, unit),
        "alignment_response": (lambda c: alignment_response(c, phase), 3 * unit),
        "aggregated_mean": (lambda c: aggregated_mean(c, phase), 3 * unit),
        "align_phase": (lambda c: align_phase(c, 0), 3 * unit),
        "rate_lower_bound": (lambda c: rate_lower_bound(c, phase), 3 * unit),
        "upper_bound": (lambda c: upper_bound(c, phase), 3 * unit),
        "power_scaling_limit": (lambda c: power_scaling_limit(c, phase, 10.0), 3 * unit),
        "qhat_gram_mean": (lambda c: qhat_gram_mean(c, phase), 3 * unit),
        "exact_rate_mc": (lambda c: exact_rate_mc(c, phase, 200, 0), 3 * unit),
        # G and Z (K x N each) and nothing more of size N
        "build_problem": (build_problem, (2 * cfg.K + 1) * unit),
    }
    for call, _ in calls.values():           # lazy set-up is not part of the peak
        call(cfg.replace())
    peaks = {}
    tracemalloc.start()
    try:
        for name, (call, _) in calls.items():
            fresh = cfg.replace()            # the LoS and statistics build is part of the peak
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(fresh)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    over = {name: peak for name, peak in peaks.items() if peak >= calls[name][1]}
    assert not over, over


def test_h1_matrix_scaling(reference_config):
    cfg = reference_config
    h1 = sample_channels(cfg, PhaseShifts.identity(cfg.N), 0).h1
    np.testing.assert_allclose(
        np.sum(np.abs(h1) ** 2, axis=0),
        cfg.N * cfg.alpha, rtol=1e-12)
