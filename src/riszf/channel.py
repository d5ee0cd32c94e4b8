"""URA line-of-sight geometry and random draws of the uplink channels.

The aggregated channel of user k superimposes the cascaded user-RIS-BS path
and the direct user-BS path: Q = H2 @ Phi @ H1 + D, with H1 purely LoS
(users are close to the RIS), H2 Rician, and D Rayleigh.  All functions are
pure; realizations are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, _once_per_config
from .errors import ConfigError


def decompose_grid(L: int) -> tuple[int, int]:
    """Split L into the closest factor pair (L_x, L_y) with L_x <= L_y."""
    if L < 1 or int(L) != L:
        raise ConfigError(f"grid size must be a positive integer, got {L!r}")
    L = int(L)
    lx = math.isqrt(L)
    while L % lx:
        lx -= 1
    return lx, L // lx


def _direction_cosines(angles) -> tuple[np.ndarray, np.ndarray]:
    """Per-direction phase slopes (u, c) = (sin(el) sin(az), cos(el)) of (az, el) rows."""
    angles = np.asarray(angles, dtype=float).reshape(-1, 2)
    return np.sin(angles[:, 1]) * np.sin(angles[:, 0]), np.cos(angles[:, 1])


def _axis_responses(L: int, angles, d_over_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis URA responses (L_x x K, L_y x K) toward K (azimuth, elevation) rows.

    Element l sits at grid position (l // L_y, l % L_y) and its phase is a
    sum over the two axes, so the full response toward direction k is the
    Kronecker product of column k of each factor: K (L_x + L_y)
    exponentials, not K L.
    """
    lx, ly = decompose_grid(L)
    u, c = _direction_cosines(angles)
    phase = 2j * np.pi * d_over_lambda
    return (np.exp(phase * (np.arange(lx)[:, None] * u)),
            np.exp(phase * (np.arange(ly)[:, None] * c)))


def _kron_columns(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(L_x L_y) x K matrix whose column k is kron(rows[:, k], cols[:, k])."""
    return (rows[:, None, :] * cols[None, :, :]).reshape(-1, rows.shape[1])


def steering_vector(L: int, azimuth: float, elevation: float,
                    d_over_lambda: float = 0.5) -> np.ndarray:
    """Unit-modulus response of an L-element URA toward (azimuth, elevation).

    The array is laid out on the closest L_x-by-L_y grid from
    :func:`decompose_grid`; element l (0-based) sees the phase
    2*pi*(d/lambda) * (floor(l / L_y) * sin(el) * sin(az) + (l mod L_y) * cos(el)).
    """
    return _kron_columns(*_axis_responses(L, (azimuth, elevation), d_over_lambda))[:, 0]


def steering_gram(L: int, angles, d_over_lambda: float = 0.5) -> np.ndarray:
    """Gram matrix of URA steering vectors without forming them (any L).

    The URA phase is separable over the two grid axes, so each inner product
    h_i^H h_j is a product of two geometric sums; cost is O(K^2) regardless
    of the array size, which keeps very large arrays tractable.
    """
    lx, ly = decompose_grid(L)
    u, c = _direction_cosines(angles)

    def axis_sum(delta, length):
        theta = 2.0 * np.pi * d_over_lambda * delta
        half = np.sin(theta / 2.0)
        safe = np.where(np.abs(half) < 1e-12, 1.0, half)
        ratio = np.sin(length * theta / 2.0) / safe
        total = np.exp(1j * theta * (length - 1) / 2.0) * ratio
        return np.where(np.abs(half) < 1e-12, float(length), total)

    du = u[None, :] - u[:, None]
    dc = c[None, :] - c[:, None]
    return axis_sum(du, lx) * axis_sum(dc, ly)


def _require_unit_modulus(moduli: np.ndarray) -> None:
    """Raise :class:`ConfigError` unless every modulus is within 1e-9 of 1 (overwrites ``moduli``)."""
    moduli -= 1.0
    np.abs(moduli, out=moduli)
    if not np.all(moduli < 1e-9):
        raise ConfigError("phase-shift entries must be unit modulus")


class PhaseShifts:
    """Unit-modulus RIS control vector (immutable).

    Stores the conjugated phase profile: element n equals exp(-j*theta_n),
    where theta_n is the physical phase shift applied by element n.  The
    reflection matrix is diagonal with entries ``phi_diag`` (= conj of the
    stored vector).  This is the variable the optimizer works on.

    A separable profile (:meth:`from_factors`: beam alignment, the identity)
    is stored as its two per-axis factors, like the URA responses of
    :class:`LosComponents`: O(L_x + L_y) memory, and the cascaded LoS
    response costs O(K (L_x + L_y)) (:func:`alignment_response`).  Its
    ``v`` is assembled on the first read and kept.  ``v`` is read-only
    either way.
    """

    __slots__ = ("_v", "_factors")

    def __init__(self, v):
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size < 1:
            raise ConfigError("phase-shift vector must be non-empty")
        _require_unit_modulus(np.abs(v))
        v.setflags(write=False)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_factors", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_factors(cls, rows, cols) -> "PhaseShifts":
        """Separable profile v = kron(rows, cols) on the :func:`decompose_grid` grid.

        The sizes (L_x, L_y) must be the :func:`decompose_grid` pair of
        L_x L_y.  Element (x, y) has modulus |rows[x]| |cols[y]|, whose
        extremes are the products of the per-factor extremes, so the
        unit-modulus check covers every element in O(L_x + L_y).
        """
        rows = np.array(rows, dtype=complex).reshape(-1)
        cols = np.array(cols, dtype=complex).reshape(-1)
        n = rows.size * cols.size
        if n < 1:
            raise ConfigError("phase-shift vector must be non-empty")
        grid = decompose_grid(n)
        if (rows.size, cols.size) != grid:
            raise ConfigError(f"factors of sizes ({rows.size}, {cols.size}) are not the "
                              f"{grid} grid of {n} elements")
        row_mod, col_mod = np.abs(rows), np.abs(cols)
        _require_unit_modulus(np.array([row_mod.min() * col_mod.min(),
                                        row_mod.max() * col_mod.max()]))
        rows.setflags(write=False)
        cols.setflags(write=False)
        phase = cls.__new__(cls)
        object.__setattr__(phase, "_v", None)
        object.__setattr__(phase, "_factors", (rows, cols))
        return phase

    @classmethod
    def from_angles(cls, theta) -> "PhaseShifts":
        """Build from physical per-element phases theta_n (radians)."""
        return cls(np.exp(-1j * np.asarray(theta, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "PhaseShifts":
        """All phases zero, i.e. the reflection matrix is the identity (separable)."""
        lx, ly = decompose_grid(n)
        return cls.from_factors(np.ones(lx), np.ones(ly))

    @classmethod
    def random(cls, n: int, rng) -> "PhaseShifts":
        """Phases drawn uniformly from [0, 2*pi)."""
        rng = np.random.default_rng(rng)
        return cls.from_angles(rng.uniform(0.0, 2.0 * np.pi, n))

    @property
    def v(self) -> np.ndarray:
        """The stored profile (length N), read-only; a separable one is assembled on first read."""
        if self._v is None:
            v = np.multiply.outer(*self._factors).reshape(-1)
            v.setflags(write=False)
            object.__setattr__(self, "_v", v)
        return self._v

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only per-axis factors (rows, cols) with v = kron(rows, cols), or None if dense."""
        return self._factors

    @property
    def n(self) -> int:
        if self._factors is None:
            return self._v.size
        rows, cols = self._factors
        return rows.size * cols.size

    @property
    def phi_diag(self) -> np.ndarray:
        """Diagonal of the reflection matrix, exp(+j*theta_n)."""
        return np.conj(self.v)

    @property
    def theta(self) -> np.ndarray:
        """Physical phases in (-pi, pi]."""
        return np.angle(self.phi_diag)


@dataclass(frozen=True)
class LosComponents:
    """Deterministic LoS quantities of a scenario, kept as per-axis factors.

    A URA response is the Kronecker product of an L_x- and an L_y-element
    response (:func:`_axis_responses`), so only those factors are stored:
    ``user_rows`` (L_x x K) and ``user_cols`` (L_y x K) for the per-user RIS
    responses hbar_k = kron(user_rows[:, k], user_cols[:, k]), and
    ``ris_rows`` (L_x) and ``ris_cols`` (L_y) for the RIS departure vector
    a_n = kron(ris_rows, ris_cols).  The LoS part of the RIS-BS link is rank
    one, a_M a_n^H; the BS arrival vector a_M is not stored: only the two
    channel draws (:func:`aggregated_mean`, :func:`sample_channels`) need
    it, and they build it.  Every closed form and the Monte-Carlo mean work
    from the cascaded response a_n^H Phi hbar_k (see
    :func:`alignment_response`) in O(K (L_x + L_y)) memory beyond the phase
    vector, and none of size M, nor of size N for a separable phase.
    ``hbar`` (N x K) and ``a_n`` assemble the dense arrays on demand, for
    the dense channel draw and for checks.

    :func:`build_los` computes one instance per :class:`SystemConfig`
    instance and hands it to every caller, so the stored arrays are
    read-only; the assembled dense arrays are fresh and writable.
    """

    user_rows: np.ndarray
    user_cols: np.ndarray
    ris_rows: np.ndarray
    ris_cols: np.ndarray

    @property
    def hbar(self) -> np.ndarray:
        """Dense per-user RIS responses as columns (N x K), assembled on demand."""
        return _kron_columns(self.user_rows, self.user_cols)

    @property
    def a_n(self) -> np.ndarray:
        """Dense RIS departure steering vector (length N), assembled on demand."""
        return np.kron(self.ris_rows, self.ris_cols)


@_once_per_config
def build_los(config: SystemConfig) -> LosComponents:
    """RIS-side per-axis steering factors of ``config``: O(K (L_x + L_y)), no M or N array.

    Computed once per config instance: later calls return the same
    :class:`LosComponents`, whose arrays are read-only.
    """
    d = config.d_over_lambda
    user_rows, user_cols = _axis_responses(config.N, config.user_ris_angles, d)
    ris_rows, ris_cols = _axis_responses(config.N, config.ris_aod, d)
    return LosComponents(user_rows=user_rows, user_cols=user_cols,
                         ris_rows=ris_rows[:, 0], ris_cols=ris_cols[:, 0])


def alignment_response(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Per-user beam response a_N^H @ Phi @ hbar_k (length K).

    Modulus N means the RIS beam is perfectly aligned to that user; the
    triangle inequality caps it at N.  The cascaded LoS response is
    a_N^H Phi H1 = sqrt(alpha) * alignment_response, and its conjugate is
    w = H1^H Phi^H a_N.

    Formed from the per-axis factors (:func:`build_los`): conj(a_N) * hbar_k
    is kron(p_k, q_k) with p_k = conj(r) * r_k (L_x) and q_k = conj(c) * c_k
    (L_y), where a_N = kron(r, c) and hbar_k = kron(r_k, c_k).  A separable
    phase v = kron(s, t) splits the sum into (s^H p_k)(t^H q_k):
    O(K (L_x + L_y)) time and memory, nothing of size N.  A dense v, laid
    out as V = conj(v) on the L_x x L_y grid, gives sum_x p_k[x] (V q_k)[x]:
    one L_x x L_y by L_y x K product, O(NK) time and O(K (L_x + L_y)) memory
    beyond v, with no N x K temporary.
    """
    geometry = build_los(config)
    rows = np.conj(geometry.ris_rows)[:, None] * geometry.user_rows
    cols = np.conj(geometry.ris_cols)[:, None] * geometry.user_cols
    if phase.factors is not None:
        phase_rows, phase_cols = phase.factors
        return (np.conj(phase_rows) @ rows) * (np.conj(phase_cols) @ cols)
    grid = phase.v.reshape(rows.shape[0], cols.shape[0])
    # V q_k = conj(v_grid conj(q_k)): conjugating the L_x x K product, not v
    return np.sum(rows * np.conj(grid @ np.conj(cols)), axis=0)


def aggregated_mean(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Deterministic mean of the aggregated channel (M x K).

    The mean is sqrt(beta delta / (delta + 1)) a_M (a_N^H Phi H1), so column
    k is sqrt(alpha_k beta delta / (delta + 1)) a_N^H Phi hbar_k * a_M; this
    is the only non-random part of Q.  Builds a_M and forms one outer product
    in O(MK), without the M x N LoS matrix.
    """
    a_m = steering_vector(config.M, *config.bs_aoa, config.d_over_lambda)
    return np.outer(a_m, mean_row(config, phase))


def mean_row(config: SystemConfig, phase: PhaseShifts) -> np.ndarray:
    """Row mu (length K) of the rank-one channel mean a_M mu (:func:`aggregated_mean`).

    a_M is unit-modulus, so |a_M|^2 = M and the mean enters every K x K
    statistic through mu alone.
    """
    scale = math.sqrt(config.beta * config.delta / (config.delta + 1.0))
    return scale * (np.sqrt(config.alpha) * alignment_response(config, phase))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the fading channels under a fixed phase configuration.

    ``q`` is exactly ``h2 @ diag(phase.phi_diag) @ h1 + d`` for the stored
    phase.  ``pilot_noise`` holds the per-user noise of the pilot observation
    (the M-vector that corrupts the sufficient statistic of user k sits in
    column k).
    """

    h1: np.ndarray
    h2: np.ndarray
    d: np.ndarray
    q: np.ndarray
    pilot_noise: np.ndarray
    phase: PhaseShifts

    @property
    def shape(self) -> tuple[int, int]:
        return self.q.shape


def _complex_randn(rng, shape) -> np.ndarray:
    """i.i.d. CN(0, 1): real and imaginary parts N(0, 1/2), real part drawn first."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= math.sqrt(2.0)
    return out


def sample_channels(config: SystemConfig, phase: PhaseShifts, rng_seed) -> ChannelRealization:
    """Draw one channel realization, reproducible from ``rng_seed``.

    ``rng_seed`` may be anything accepted by ``np.random.default_rng`` (an
    int, a SeedSequence, or a Generator).  Draw order is fixed: RIS-BS NLoS
    block, then direct channels, then pilot noise.  Builds a_M itself: the
    LoS matrix a_M a_n^H is the start of ``h2``.
    """
    if phase.n != config.N:
        raise ConfigError(f"phase vector has {phase.n} entries, config expects {config.N}")
    rng = np.random.default_rng(rng_seed)
    los = build_los(config)
    h1 = los.hbar * np.sqrt(config.alpha)
    h2_nlos = _complex_randn(rng, (config.M, config.N))
    # h2 = sqrt(beta/(delta+1)) (sqrt(delta) a_M a_n^H + NLoS), built in place
    # so a draw holds only two M x N arrays
    h2 = np.outer(steering_vector(config.M, *config.bs_aoa, config.d_over_lambda),
                  np.conj(los.a_n))
    h2 *= math.sqrt(config.delta)
    h2 += h2_nlos
    h2 *= math.sqrt(config.beta / (config.delta + 1.0))
    d = _complex_randn(rng, (config.M, config.K)) * np.sqrt(config.gamma)
    q = h2 @ (phase.phi_diag[:, None] * h1) + d
    pilot_scale = math.sqrt(config.sigma2 / (config.tau * config.p))
    pilot_noise = pilot_scale * _complex_randn(rng, (config.M, config.K))
    return ChannelRealization(h1=h1, h2=h2, d=d, q=q, pilot_noise=pilot_noise, phase=phase)


def sample_aggregated(config: SystemConfig, mean: np.ndarray, row_factor: np.ndarray,
                      rng_seed, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``trials`` aggregated channels in their M x K form, with pilot noise.

    ``mean`` is the channel mean (:func:`aggregated_mean`) and ``row_factor``
    a factor L of the row covariance R = L L^H of Q - mean
    (``riszf.estimation.ChannelStatistics.cov``).  Returns ``(q, pilot_noise)``,
    each of shape (trials, M, K), with q = mean + W L^H and W i.i.d. CN(0, 1).
    This has the distribution of :func:`sample_channels`' ``q`` at O(MK^2)
    cost per trial: no M x N array is formed.  Draw order: W, then pilot
    noise.
    """
    rng = np.random.default_rng(rng_seed)
    shape = (trials, config.M, config.K)
    q = _complex_randn(rng, shape) @ row_factor.conj().T
    q += mean
    pilot_scale = math.sqrt(config.sigma2 / (config.tau * config.p))
    pilot_noise = _complex_randn(rng, shape)
    pilot_noise *= pilot_scale
    return q, pilot_noise
