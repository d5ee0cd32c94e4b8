"""Shared fixtures and config factories for the test suite."""

import contextlib
import signal

import numpy as np
import pytest

from riszf.config import SystemConfig, default_profile


@pytest.fixture(scope="session")
def reference_config():
    """The bundled default operating point (K=8, M=N=64, delta=1)."""
    return default_profile()


def toy_config(K=3, M=12, N=16, delta=0.5, tau=None, tau_c=None, p=1.0,
               sigma2=1.0, beta=1.5, alpha=None, gamma=None, seed=0, mu=10.0):
    """Small config with O(1) path gains; convenient for probe tests."""
    rng = np.random.default_rng(seed)
    if alpha is None:
        alpha = rng.uniform(0.4, 2.0, K)
    if gamma is None:
        gamma = rng.uniform(0.4, 2.0, K)
    if tau is None:
        tau = K
    if tau_c is None:
        tau_c = max(20 * tau, 196)
    return SystemConfig(
        M=M, N=N, K=K, tau_c=tau_c, tau=tau, p=p, sigma2=sigma2,
        delta=delta, beta=beta, alpha=np.asarray(alpha, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        user_ris_angles=np.stack([rng.uniform(0, 2 * np.pi, K),
                                  rng.uniform(0, np.pi, K)], axis=1),
        ris_aod=(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)),
        bs_aoa=(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)),
        mu=mu,
    )


def random_angle_profile(seed, **kwargs):
    """``default_profile(**kwargs)`` with user, RIS and BS directions drawn uniformly from ``seed``.

    Azimuths in [0, 2 pi), elevations in [0, pi): the K user azimuths, the K
    user elevations, then the RIS departure and the BS arrival pairs.
    """
    base = default_profile(**kwargs)
    rng = np.random.default_rng(seed)
    return base.replace(
        user_ris_angles=np.stack([rng.uniform(0.0, 2.0 * np.pi, base.K),
                                  rng.uniform(0.0, np.pi, base.K)], axis=1),
        ris_aod=(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi)),
        bs_aoa=(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi)))


def random_config(rng, K=None, M=None, N=None, delta=None):
    """Random physically-scaled config with moderate spreads.

    Path gains stay within about 1.5 orders of magnitude so the K x K
    correlation systems remain well conditioned for tight tolerance checks.
    """
    if K is None:
        K = int(rng.integers(2, 7))
    if M is None:
        M = K + int(rng.integers(2, 28))
    if N is None:
        N = int(rng.integers(8, 65))
    if delta is None:
        delta = float(rng.uniform(0.0, 10.0))
    tau = K + int(rng.integers(0, 4))
    return SystemConfig(
        M=M, N=N, K=K, tau_c=tau + int(rng.integers(50, 300)), tau=tau,
        p=10.0 ** rng.uniform(-2.0, 1.0),
        sigma2=10.0 ** rng.uniform(-14.0, -12.0),
        delta=delta,
        beta=10.0 ** rng.uniform(-10.5, -9.5),
        alpha=10.0 ** rng.uniform(-6.0, -4.5, K),
        gamma=10.0 ** rng.uniform(-15.0, -13.5, K),
        user_ris_angles=np.stack([rng.uniform(0, 2 * np.pi, K),
                                  rng.uniform(0, np.pi, K)], axis=1),
        ris_aod=(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)),
        bs_aoa=(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)),
        mu=float(rng.uniform(2.0, 20.0)),
    )


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``: a hang becomes a failure.

    Uses ``SIGALRM`` on the calling (main) thread and starts no process.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
