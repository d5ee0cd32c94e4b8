"""Acceptance suite: one test per release criterion, strict tolerances.

Each test prints a single [PASS]/[FAIL] line so the whole gate can be read
off `pytest tests/test_acceptance.py -v -s`.  Tolerances are fixed here and
nowhere else.
"""

import math
import time

import numpy as np


from riszf.channel import PhaseShifts, aggregated_mean, alignment_response
from riszf.config import default_profile
from riszf.estimation import compute_statistics
from riszf.harness import solve_antennas_for_snr
from riszf.optimizer import (align_phase, build_problem, fractional_objective,
                             mm_optimize, quantize_phase)
from riszf.rate import (exact_rate_mc, phase_independent_bound, rate_lower_bound,
                        power_scaling_limit, required_antennas, rate_lower_bound_snr,
                        upper_bound)
from riszf.channel import sample_channels

from conftest import random_config
from oracle import mmse_estimate, qhat_gram_mean, surrogate_maxsum


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_sandwich_inequality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(200):
        cfg = random_config(rng)
        ph = PhaseShifts.random(cfg.N, rng)
        floor_bound, _ = phase_independent_bound(cfg)
        lb = rate_lower_bound(cfg, ph)
        ubg, uba = upper_bound(cfg, ph)
        for low, high in ((floor_bound, lb), (lb, ubg), (ubg, uba)):
            violation = np.max((low - high) / np.abs(high))
            worst = max(worst, violation)
            ok &= violation <= 1e-10
    elapsed = time.perf_counter() - start
    _report(1, "bound chain LB2 <= LB <= UB <= UB_aligned on 200 random pairs",
            ok and elapsed < 30.0, f"worst violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_delta_zero_equality():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        cfg = random_config(rng, delta=0.0)
        ph = PhaseShifts.random(cfg.N, rng)
        lb = rate_lower_bound(cfg, ph)
        floor_bound, _ = phase_independent_bound(cfg)
        worst = max(worst, np.max(np.abs(lb - floor_bound) / floor_bound))
    elapsed = time.perf_counter() - start
    _report(2, "Rayleigh backhaul collapses the bound chain to equality",
            worst <= 1e-12 and elapsed < 5.0, f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_monte_carlo_vs_closed_form():
    start = time.perf_counter()
    cfg = default_profile()
    ph = PhaseShifts.identity(cfg.N)
    mc = exact_rate_mc(cfg, ph, trials=2000, seed=2027)
    lb = rate_lower_bound(cfg, ph)
    dev = float(np.max(np.abs(mc.rates - lb) / lb))
    elapsed = time.perf_counter() - start
    _report(3, "2000-trial Monte-Carlo rate within 5% of the closed form per user",
            dev <= 0.05 and elapsed < 300.0, f"max dev {dev:.3%}, {elapsed:.1f}s")


def test_criterion_04_scaling_order_increments():
    start = time.perf_counter()
    tau_o = default_profile().tau_overhead
    k = default_profile().K

    floor_bound00 = phase_independent_bound(default_profile(N=200))[0]
    lb400 = phase_independent_bound(default_profile(N=400))[0]
    total_inc = float(lb400.sum() - floor_bound00.sum())
    lb_ok = 0.8 * tau_o * k <= total_inc <= 1.1 * tau_o * k

    cfg200, cfg400 = default_profile(N=200), default_profile(N=400)
    mc200 = exact_rate_mc(cfg200, align_phase(cfg200, 0), trials=2000, seed=42)
    mc400 = exact_rate_mc(cfg400, align_phase(cfg400, 0), trials=2000, seed=43)
    aligned_inc = float(mc400.rates[0] - mc200.rates[0])
    mc_ok = 1.7 <= aligned_inc <= 2.1

    elapsed = time.perf_counter() - start
    _report(4, "doubling N: +1 bit/user in the floor bound, +2 bits for the aligned user",
            lb_ok and mc_ok and elapsed < 600.0,
            f"floor total {total_inc:.2f} bits, aligned {aligned_inc:.2f} bits, {elapsed:.1f}s")


def test_criterion_05_estimator_moments():
    start = time.perf_counter()
    cfg = default_profile(K=3, M=16, N=16)
    ph = PhaseShifts.identity(cfg.N)
    stats = compute_statistics(cfg)
    mean = aggregated_mean(cfg, ph)
    trials = 10_000
    err_power = np.empty((trials, cfg.K))
    grams = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    for t in range(trials):
        real = sample_channels(cfg, ph, np.random.SeedSequence(entropy=5, spawn_key=(t,)))
        qhat, err = mmse_estimate(cfg, real, stats=stats, mean=mean)
        err_power[t] = np.sum(np.abs(err) ** 2, axis=0) / cfg.M
        grams[t] = qhat.conj().T @ qhat

    z_eps = np.abs(err_power.mean(0) - stats.epsilon) / (err_power.std(0, ddof=1)
                                                         / math.sqrt(trials))
    theory = qhat_gram_mean(cfg, ph)
    emp = grams.mean(axis=0)
    floor = 1e-9 * np.abs(theory).max()
    z_re = np.abs(emp.real - theory.real) / np.maximum(
        grams.real.std(axis=0, ddof=1) / math.sqrt(trials), floor)
    z_im = np.abs(emp.imag - theory.imag) / np.maximum(
        grams.imag.std(axis=0, ddof=1) / math.sqrt(trials), floor)
    worst = max(z_eps.max(), z_re.max(), z_im.max())
    elapsed = time.perf_counter() - start
    _report(5, "error power and estimate Gram mean match theory within 3 SE",
            worst < 3.0 and elapsed < 120.0, f"worst |z| {worst:.2f}, {elapsed:.1f}s")


def test_criterion_06_mm_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    tangency_worst = 0.0
    minorization_worst = 0.0
    monotone_ok = True
    quality_ok = True
    for _ in range(50):
        cfg = random_config(rng)
        prob = build_problem(cfg)

        v0 = PhaseShifts.random(cfg.N, rng).v
        const, fvec = surrogate_maxsum(v0, prob)
        f0 = fractional_objective(prob, v0)
        tangency_worst = max(tangency_worst, float(np.max(np.abs(
            const + 2 * np.real(fvec @ np.conj(v0)) - f0))))
        for _ in range(20):
            v = PhaseShifts.random(cfg.N, rng).v
            gap = const + 2 * np.real(fvec @ np.conj(v)) - fractional_objective(prob, v)
            minorization_worst = max(minorization_worst, float(np.max(gap)))

        cases = [align_phase(cfg, 0), align_phase(cfg, cfg.K - 1),
                 PhaseShifts.random(cfg.N, rng), PhaseShifts.identity(cfg.N)]

        def sum_rate(phase):
            return float(rate_lower_bound(cfg, phase).sum())

        def min_rate(phase):
            return float(rate_lower_bound(cfg, phase).min())

        tr_sum = mm_optimize(cfg, "sum", init=max(cases, key=sum_rate),
                             max_iter=200, problem=prob)
        objs = [val for _, val, _ in tr_sum.iterates]
        monotone_ok &= all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        best_case_sum = max(sum_rate(p) for p in cases)
        quality_ok &= sum_rate(tr_sum.final_v) >= best_case_sum * (1 - 1e-9)

        candidates = cases + [tr_sum.final_v]
        tr_min = mm_optimize(cfg, "min", init=max(candidates, key=min_rate),
                             max_iter=200, problem=prob)
        objs = [val for _, val, _ in tr_min.iterates]
        monotone_ok &= all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        other_min = max(min_rate(p) for p in candidates)
        quality_ok &= min_rate(tr_min.final_v) >= other_min * (1 - 1e-9)
    elapsed = time.perf_counter() - start
    ok = (tangency_worst <= 1e-10 and minorization_worst <= 1e-10
          and monotone_ok and quality_ok and elapsed < 300.0)
    _report(6, "MM surrogates touch and minorize; traces are monotone; "
               "optimized designs beat every heuristic case", ok,
            f"tangency {tangency_worst:.1e}, minorization {minorization_worst:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_07_cross_module_identity():
    start = time.perf_counter()
    cfg = default_profile()
    prob = build_problem(cfg)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        ph = PhaseShifts.random(cfg.N, rng)
        values = fractional_objective(prob, ph.v)
        expected = np.log1p(rate_lower_bound_snr(cfg, ph))
        worst = max(worst, float(np.max(np.abs(values - expected) / expected)))
    elapsed = time.perf_counter() - start
    _report(7, "quadratic-ratio objective reproduces the closed-form SNR",
            worst <= 1e-10 and elapsed < 10.0, f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_power_scaling():
    start = time.perf_counter()
    e_u, n = 10.0, 100_000
    ph = PhaseShifts.identity(n)

    cfg = default_profile(M=64, N=n).replace(p=e_u / n)
    rate = rate_lower_bound(cfg, ph)
    limit_snr, _ = power_scaling_limit(cfg, ph, e_u)
    limit64 = cfg.tau_overhead * np.log2(1 + limit_snr)
    gap = float(np.max(np.abs(rate - limit64) / limit64))

    cfg32 = default_profile(M=32, N=n).replace(p=e_u / n)
    limit_snr32, _ = power_scaling_limit(cfg32, ph, e_u)
    limit32 = cfg32.tau_overhead * np.log2(1 + limit_snr32)
    increment = float(np.mean(limit64 - limit32))

    elapsed = time.perf_counter() - start
    ok = gap <= 0.02 and 0.85 <= increment <= 1.15 and elapsed < 60.0
    _report(8, "p = 10/N rate reaches its limit; doubling M adds ~1 bit to the limit",
            ok, f"gap {gap:.3%}, increment {increment:.2f} bits, {elapsed:.1f}s")


def test_criterion_09_antenna_element_tradeoff():
    start = time.perf_counter()
    cfg = default_profile()
    user = cfg.K - 1
    c0 = 10.0
    worst = 0.0
    for n in (64, 128, 256):
        solved = solve_antennas_for_snr(cfg, n, c0, user)
        formula = required_antennas(cfg.replace(N=n, delta=0.0), n, c0, user)
        worst = max(worst, abs(solved - formula) / formula)
    elapsed = time.perf_counter() - start
    _report(9, "numerically solved antenna count matches the closed form within 5%",
            worst <= 0.05 and elapsed < 60.0, f"worst dev {worst:.3%}, {elapsed:.1f}s")


def test_criterion_10_quantization_floor():
    start = time.perf_counter()
    ok = True
    for bits in (1, 2, 3):
        for n in (16, 64, 256):
            cfg = default_profile(N=n)
            for k in (0, cfg.K - 1):
                ph = quantize_phase(align_phase(cfg, k), bits)
                response = float(np.abs(alignment_response(cfg, ph))[k]) ** 2
                ok &= response >= n**2 * math.cos(math.pi / 2**bits) ** 2 - 1e-9
    elapsed = time.perf_counter() - start
    _report(10, "quantized aligned phases keep the squared response above "
                "N^2 cos^2(pi/2^b)", ok and elapsed < 5.0, f"{elapsed:.1f}s")
