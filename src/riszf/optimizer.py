"""RIS phase-shift design by majorization-minimization.

The per-user rate under statistical CSI is a ratio of quadratic forms in the
unit-modulus control vector v:  f_k(v) = ln(1 + v^H B v / v^H C_k v).  B is
I/N plus a rank-K term in the row space of G = H1^H diag(a_N) (K x N), and
every C_k is a scaled B minus a rank-one term in the same space, so the
problem is stored as O(NK) factors and f_k depends on v only through G v.
Both the sum-rate and the (log-sum-exp smoothed) min-rate objectives admit
linear touching minorants whose constrained argmax is a pure phase alignment,
so every iteration is closed-form and costs O(NK).  An extrapolation step
with backtracking keeps the accepted objective sequence nondecreasing while
accelerating convergence.  The surrogates are those of Sun, Babu & Palomar,
"Majorization-Minimization Algorithms in Signal Processing, Communications,
and Machine Learning", IEEE TSP 2017.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhaseShifts, build_los, steering_gram
from .config import SystemConfig
from .errors import ConfigError, NumericalError
from .estimation import compute_statistics, hermitian_inverse

# relative upward padding of the exact top eigenvalues, so that rounding in the
# K x K eigenproblem cannot leave a bound below the dense spectrum
_BOUND_PAD = 1e-12

# finest quantization grid a float64 phase in [0, 2 pi) can resolve
_MAX_BITS = 52


@dataclass(frozen=True)
class FractionalProblem:
    """Data of the phase-design problem: f_k(v) = ln(1 + v^H B v / v^H C_k v).

    Only O(NK) factors are stored:

        B   = I/N + rho G^H Lam^{-1} G
        C_k = scale ([Lam^{-1}]_kk B - rho z_k z_k^H)

    ``g`` is G = H1^H diag(a_N) (K x N); ``los_rows`` is Z = Lam^{-1} G, the
    whitened cascaded-LoS rows (row k is z_k^H); ``lam_inv_diag`` is the real
    diagonal of Lam^{-1}; ``rho = beta delta / (delta + 1)`` and
    ``scale = (p sum(eps) + sigma2) / (p (M - K))``.  With u = G v and
    y = Z v every quadratic form costs O(NK):

        v^H B v   = ||v||^2 / N + rho Re(u^H y)
        v^H C_k v = scale ([Lam^{-1}]_kk v^H B v - rho |y_k|^2)

    ``spectral_bounds[k]`` is the top eigenvalue of C_k + B, padded up by a
    relative 1e-12, used by the minorizing surrogates.  ``num_mat`` (N x N)
    and ``den_mats`` (K x N x N) assemble the dense matrices on demand for
    checks at small N; the optimizer never forms them.
    """

    g: np.ndarray
    los_rows: np.ndarray
    lam_inv_diag: np.ndarray
    rho: float
    scale: float
    spectral_bounds: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[1]

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def num_mat(self) -> np.ndarray:
        """Dense B, assembled on demand (O(N^2) memory)."""
        num = self.rho * (self.g.conj().T @ self.los_rows)
        num[np.diag_indices_from(num)] += 1.0 / self.n
        return 0.5 * (num + num.conj().T)

    @property
    def den_mats(self) -> np.ndarray:
        """Dense C_k stacked along axis 0, assembled on demand (O(K N^2) memory)."""
        # row k of los_rows is z_k^H, so z_k z_k^H conjugates it on the left
        rank_one = np.conj(self.los_rows)[:, :, None] * self.los_rows[:, None, :]
        den = self.scale * (self.lam_inv_diag[:, None, None] * self.num_mat
                            - self.rho * rank_one)
        return 0.5 * (den + den.conj().transpose(0, 2, 1))


def build_problem(config: SystemConfig) -> FractionalProblem:
    """Assemble the low-rank fractional-programming data from the scenario statistics.

    G = H1^H diag(a_N), Z = Lam^{-1} G, rho = beta delta / (delta + 1).  The
    spectral bounds are exact: C_k + B = c_k I + rho G^H M_k G with
    c_k = (1 + scale [Lam^{-1}]_kk) / N and the PSD K x K matrix
    M_k = N c_k Lam^{-1} - scale l_k l_k^H (l_k = column k of Lam^{-1}).  For
    any R with R^H R = G G^H, the top eigenvalue is c_k + rho times the top
    eigenvalue of the K x K matrix R M_k R^H.  a_N is unit-modulus, so
    G G^H = diag(sqrt(alpha)) S diag(sqrt(alpha)) with S the analytic
    steering Gram, and R is its PSD root.  Total cost O(N K^2); no N x N or
    M x N matrix is formed.
    """
    los = build_los(config)
    stats = compute_statistics(config)
    # hbar (N x K) is assembled once, as the storage of G^T, and turned into
    # G^T in place: times sqrt(alpha), conjugated, times a_N.  G is its
    # column-major view; BLAS sums G v in a layout-dependent order, and the
    # designs are reproducible for this layout.
    g_t = los.hbar
    g_t *= np.sqrt(config.alpha)
    np.conj(g_t, out=g_t)
    g_t *= los.a_n[:, None]
    g = g_t.T
    lam_inv = hermitian_inverse(stats.lam, "estimate correlation matrix")
    z = lam_inv @ g
    lam_inv_diag = np.real(np.diag(lam_inv)).copy()
    rho = config.beta * config.delta / (config.delta + 1.0)
    scale = ((config.p * float(stats.epsilon.sum()) + config.sigma2)
             / (config.p * (config.M - config.K)))

    root_alpha = np.sqrt(config.alpha)
    gram = (steering_gram(config.N, config.user_ris_angles, config.d_over_lambda)
            * np.outer(root_alpha, root_alpha))
    eigval, eigvec = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    r = np.sqrt(np.clip(eigval, 0.0, None))[:, None] * eigvec.conj().T
    r_lam = r @ lam_inv                      # column k is R l_k
    r_lam_r = r_lam @ r.conj().T
    weight = 1.0 + scale * lam_inv_diag
    bounds = np.empty(config.K)
    for k in range(config.K):
        m = weight[k] * r_lam_r - scale * np.outer(r_lam[:, k], np.conj(r_lam[:, k]))
        # M_k is PSD, so the top eigenvalue is never below c_k
        top = max(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]), 0.0)
        bounds[k] = (weight[k] / config.N + rho * top) * (1.0 + _BOUND_PAD)
    return FractionalProblem(g=g, los_rows=z, lam_inv_diag=lam_inv_diag, rho=rho,
                             scale=scale, spectral_bounds=bounds)


def _quadratic_forms(problem: FractionalProblem, v: np.ndarray
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """``(v^H B v, [v^H C_k v]_k, y = Z v)`` in O(NK)."""
    u = problem.g @ v
    y = problem.los_rows @ v
    vbv = (float(np.real(np.vdot(v, v))) / problem.n
           + problem.rho * float(np.real(np.vdot(u, y))))
    vcv = problem.scale * (problem.lam_inv_diag * vbv - problem.rho * np.abs(y) ** 2)
    return vbv, vcv, y


def fractional_objective(problem: FractionalProblem, v: np.ndarray) -> np.ndarray:
    """Per-user values f_k(v) = ln(1 + v^H B v / v^H C_k v), in nats."""
    vbv, vcv, _ = _quadratic_forms(problem, np.asarray(v, dtype=complex))
    if np.any(vcv <= 0.0):
        raise NumericalError("denominator quadratic form is not positive "
                             "(degenerate problem)")
    return np.log1p(vbv / vcv)


def smoothed_min(values: np.ndarray, mu: float) -> float:
    """Soft minimum -(1/mu) ln sum exp(-mu f_k), a lower bound on min f_k."""
    scaled = -mu * np.asarray(values, dtype=float)
    shift = scaled.max()
    return float(-(shift + math.log(np.exp(scaled - shift).sum())) / mu)


def surrogate_maxsum(v_n: np.ndarray, problem: FractionalProblem
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Linear touching minorant of each f_k at the expansion point v_n.

    Returns ``(const, fvec)`` such that
        f_k(v) >= const[k] + 2 Re{fvec[k]^H v}   for all unit-modulus v,
    with equality at v = v_n.
    """
    const, fvec, _ = _surrogate(np.asarray(v_n, dtype=complex), problem)
    return const, fvec


def _surrogate(v_n: np.ndarray, problem: FractionalProblem
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(const, fvec, f(v_n))``: the minorant of :func:`surrogate_maxsum` and
    the objective values at v_n, from one evaluation of the quadratic forms."""
    n = v_n.size
    vbv, vcv, y = _quadratic_forms(problem, v_n)
    vanished = np.flatnonzero(vcv <= 0.0)
    if vanished.size:
        raise NumericalError(f"user {vanished[0]}: denominator quadratic form vanished "
                             "at the expansion point")
    # B v = v/N + rho G^H y and C_k v = scale ([Lam^{-1}]_kk B v - rho y_k z_k)
    bv = v_n / problem.n + problem.rho * np.conj(np.conj(y) @ problem.g)
    cv = problem.scale * (problem.lam_inv_diag[:, None] * bv
                          - problem.rho * y[:, None] * np.conj(problem.los_rows))
    omega = 1.0 / vcv
    psi = vbv / (vcv * (vcv + vbv))
    lam = problem.spectral_bounds
    fvec = omega[:, None] * bv - psi[:, None] * (cv + bv - lam[:, None] * v_n)
    values = np.log1p(vbv / vcv)
    const = (values - vbv / vcv
             - psi * (lam * n - (vcv + vbv))
             - n * psi * lam)
    return const, fvec, values


def _phase_align(coeff: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit-modulus maximizer of Re{coeff^H v}; zero entries keep ``fallback``."""
    out = np.exp(1j * np.angle(coeff))
    zero = coeff == 0
    if np.any(zero):
        out[zero] = fallback[zero]
    return out


def maxsum_step(v_n: np.ndarray, problem: FractionalProblem) -> np.ndarray:
    """One closed-form sum-objective ascent step: align to sum_k f_k^n."""
    _, fvec = surrogate_maxsum(v_n, problem)
    return _phase_align(fvec.sum(axis=0), np.asarray(v_n, dtype=complex))


def maxmin_step(v_n: np.ndarray, problem: FractionalProblem, mu: float) -> np.ndarray:
    """One closed-form smoothed-min ascent step.

    Softmin weights (computed in log-space with a max shift) reweight the
    per-user surrogate vectors; the proximal term 2 mu max_k ||f_k^n||^2 v_n
    keeps the quadratic minorant of the smoothed objective valid.
    """
    if mu <= 0.0:
        raise NumericalError("log-sum-exp sharpness mu must be positive")
    v_n = np.asarray(v_n, dtype=complex)
    _, fvec, values = _surrogate(v_n, problem)
    scaled = -mu * values
    scaled -= scaled.max()
    weights = np.exp(scaled)
    weights /= weights.sum()
    prox = 2.0 * mu * float(np.max(np.sum(np.abs(fvec) ** 2, axis=1)))
    coeff = weights @ fvec + prox * v_n
    return _phase_align(coeff, v_n)


@dataclass(frozen=True)
class OptTrace:
    """Record of one optimizer run.

    ``iterates`` lists (iteration, accepted objective value, backtrack
    count); accepted objective values are nondecreasing.  ``final_v`` is the
    best visited point measured by the true objective (for the min objective
    the accepted sequence tracks its smooth surrogate, so the best true
    minimum over accepted iterates is returned).
    """

    iterates: list[tuple[int, float, int]]
    converged: bool
    final_v: PhaseShifts

    @property
    def iterations(self) -> int:
        return self.iterates[-1][0]

    @property
    def final_objective(self) -> float:
        return self.iterates[-1][1]


_MAX_BACKTRACK = 30


def mm_optimize(config: SystemConfig, objective: str = "sum",
                init: PhaseShifts | None = None, max_iter: int = 500,
                rel_tol: float = 1e-6,
                problem: FractionalProblem | None = None) -> OptTrace:
    """Maximize the sum rate or the minimum user rate over RIS phases.

    ``objective`` is ``"sum"`` (sum of f_k) or ``"min"`` (log-sum-exp
    smoothed minimum with sharpness ``config.mu``; the smoothing is what
    makes monotone closed-form steps possible).  Each iteration takes two
    closed-form steps, extrapolates through them, and halves the
    extrapolation back (at most 30 times) until the objective does not
    decrease; the plain second step is accepted if extrapolation never
    helps.  Terminates when the relative objective change drops below
    ``rel_tol`` or after ``max_iter`` iterations.

    Defaults to the identity phase configuration when ``init`` is omitted.
    """
    if objective not in ("sum", "min"):
        raise ConfigError(f"objective must be 'sum' or 'min', got {objective!r}")
    if problem is None:
        problem = build_problem(config)
    if init is None:
        init = PhaseShifts.identity(config.N)
    if init.n != config.N:
        raise ConfigError(f"init has {init.n} entries, config expects {config.N}")

    mu = config.mu
    if objective == "sum":
        def step(v):
            return maxsum_step(v, problem)

        def accept_value(values):
            return float(values.sum())

        def true_value(values):
            return float(values.sum())
    else:
        def step(v):
            return maxmin_step(v, problem, mu)

        def accept_value(values):
            return smoothed_min(values, mu)

        def true_value(values):
            return float(values.min())

    v = init.v.copy()
    values = fractional_objective(problem, v)
    obj = accept_value(values)
    best_true = true_value(values)
    best_v = v
    iterates = [(0, obj, 0)]
    converged = False

    for it in range(1, max_iter + 1):
        v1 = step(v)
        v2 = step(v1)
        d1 = v1 - v
        d2 = v2 - v1 - d1
        d1_norm = float(np.linalg.norm(d1))
        d2_norm = float(np.linalg.norm(d2))

        backtracks = 0
        if d1_norm == 0.0 or d2_norm == 0.0:
            v_new = v2
            new_values = fractional_objective(problem, v_new)
            obj_new = accept_value(new_values)
        else:
            rho = -d1_norm / d2_norm
            while True:
                cand = -np.exp(1j * np.angle(v - 2.0 * rho * d1 + rho**2 * d2))
                cand_values = fractional_objective(problem, cand)
                obj_cand = accept_value(cand_values)
                if obj_cand >= obj or backtracks >= _MAX_BACKTRACK:
                    break
                rho = (rho - 1.0) / 2.0
                backtracks += 1
            if obj_cand >= obj:
                v_new, new_values, obj_new = cand, cand_values, obj_cand
            else:
                v_new = v2
                new_values = fractional_objective(problem, v_new)
                obj_new = accept_value(new_values)

        iterates.append((it, obj_new, backtracks))
        tv = true_value(new_values)
        if tv > best_true:
            best_true = tv
            best_v = v_new
        change = abs(obj_new - obj)
        obj = obj_new
        v = v_new
        if change <= rel_tol * max(abs(obj), 1e-12):
            converged = True
            break

    return OptTrace(iterates=iterates, converged=converged, final_v=PhaseShifts(best_v))


def align_phase(config: SystemConfig, k: int) -> PhaseShifts:
    """Phases that focus the RIS beam on user k (0-based).

    Sets theta_n = -angle(conj(a_N[n]) * hbar_k[n]), which makes the beam
    response a_N^H Phi hbar_k equal to N exactly.  Both vectors are
    assembled from their per-axis factors: O(N), with no N x K array.
    """
    if not 0 <= k < config.K:
        raise ConfigError(f"user index {k} out of range for K={config.K}")
    los = build_los(config)
    v = np.conj(los.a_n)
    v *= np.kron(los.user_rows[:, k], los.user_cols[:, k])
    return PhaseShifts(v)


def quantize_phase(phase: PhaseShifts, bits: int) -> PhaseShifts:
    """Snap each phase to the nearest of the 2^bits uniform grid points.

    Grid points are 2*pi*m / 2^bits; exact ties go to the smaller angle.
    The per-element phase error is at most pi / 2^bits.  A float64 phase
    cannot resolve a finer grid, so ``bits`` is at most 52.
    """
    if not 1 <= bits <= _MAX_BITS or int(bits) != bits:
        raise ConfigError(f"bits must be an integer from 1 to {_MAX_BITS}, got {bits!r}")
    levels = 2 ** int(bits)
    step = 2.0 * np.pi / levels
    theta = np.mod(np.angle(phase.phi_diag), 2.0 * np.pi)
    m = np.mod(np.ceil(theta / step - 0.5), levels)
    return PhaseShifts.from_angles(m * step)
