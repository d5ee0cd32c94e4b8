"""RIS phase-shift design by majorization-minimization.

The per-user rate under statistical CSI is a ratio of quadratic forms in the
unit-modulus control vector v:  f_k(v) = ln(1 + v^H B v / v^H C_k v).  B is
I/N plus a rank-K term in the row space of G = H1^H diag(a_N) (K x N), and
every C_k is a scaled B minus a rank-one term in the same space, so the
problem is stored as O(NK) factors and f_k depends on v only through G v.
Both the sum-rate and the (log-sum-exp smoothed) min-rate objectives admit
linear touching minorants whose constrained argmax is a pure phase alignment,
so every iteration is closed-form and costs two products by G, O(NK).  An
extrapolation step with backtracking keeps the accepted objective sequence
nondecreasing while accelerating convergence.  The surrogates are those of Sun, Babu & Palomar,
"Majorization-Minimization Algorithms in Signal Processing, Communications,
and Machine Learning", IEEE TSP 2017.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhaseShifts, build_los
from .config import SystemConfig, _once_per_config
from .errors import ConfigError, NumericalError
from .estimation import compute_statistics, hermitian_inverse

# relative upward padding of the exact top eigenvalues, so that rounding in the
# K x K eigenproblem cannot leave a bound below the dense spectrum
_BOUND_PAD = 1e-12

# finest quantization grid a float64 phase in [0, 2 pi) can resolve
_MAX_BITS = 52

# the reductions of ndarray.sum, .min and .max on 1-D arrays, without their
# Python-level wrappers: the MM loop calls them a few times per point
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class FractionalProblem:
    """Data of the phase-design problem: f_k(v) = ln(1 + v^H B v / v^H C_k v).

    Only O(NK) factors are stored:

        B   = I/N + rho G^H Lam^{-1} G
        C_k = scale ([Lam^{-1}]_kk B - rho z_k z_k^H)

    ``g`` is G = H1^H diag(a_N) (K x N), the only N-sized array stored;
    ``lam_inv`` is Lam^{-1} (K x K) and ``lam_inv_diag`` its real diagonal;
    ``rho = beta delta / (delta + 1)`` and
    ``scale = (p sum(eps) + sigma2) / (p (M - K))``.  With u = G v and
    y = Z v = Lam^{-1} u (Z = Lam^{-1} G, the whitened cascaded-LoS rows, is
    ``los_rows``, assembled on demand) every quadratic form costs O(NK):

        v^H B v   = ||v||^2 / N + rho Re(u^H y)
        v^H C_k v = scale ([Lam^{-1}]_kk v^H B v - rho |y_k|^2)

    ``gram`` is G G^H (K x K), so the norms of the surrogate vectors need no
    K x N array.  ``spectral_bounds[k]`` is the top eigenvalue of C_k + B,
    padded up by a relative 1e-12, used by the minorizing surrogates.
    ``num_mat`` (N x N) and ``den_mats`` (K x N x N) assemble the dense
    matrices on demand for checks at small N; the optimizer never forms
    them.
    """

    g: np.ndarray
    lam_inv: np.ndarray
    lam_inv_diag: np.ndarray
    rho: float
    scale: float
    spectral_bounds: np.ndarray
    gram: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[1]

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def los_rows(self) -> np.ndarray:
        """Z = Lam^{-1} G (K x N), assembled on demand; row k is z_k^H."""
        return self.lam_inv @ self.g

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


@_once_per_config
def build_problem(config: SystemConfig) -> FractionalProblem:
    """Assemble the low-rank fractional-programming data from the scenario statistics.

    G = H1^H diag(a_N), Z = Lam^{-1} G, rho = beta delta / (delta + 1).  The
    spectral bounds are exact: C_k + B = c_k I + rho G^H M_k G with
    c_k = (1 + scale [Lam^{-1}]_kk) / N and the PSD K x K matrix
    M_k = N c_k Lam^{-1} - scale l_k l_k^H (l_k = column k of Lam^{-1}).  For
    any R with R^H R = G G^H, the top eigenvalue is c_k + rho times the top
    eigenvalue of the K x K matrix R M_k R^H.  a_N is unit-modulus, so
    G G^H = diag(sqrt(alpha)) S diag(sqrt(alpha)), ``ChannelStatistics.gram``
    from the analytic steering Gram S, and R is its PSD root.  Total cost
    O(N K^2); no N x N or M x N matrix is formed, and no N-sized array
    beyond G and one vector.  Computed once per config instance: later calls
    return the same :class:`FractionalProblem`, whose arrays are read-only.
    """
    los = build_los(config)
    stats = compute_statistics(config)
    # row k of G is sqrt(alpha_k) conj(hbar_k) * a_N, built in place
    g = np.empty((config.K, config.N), dtype=complex)
    np.multiply(los.user_rows.T[:, :, None], los.user_cols.T[:, None, :],
                out=g.reshape(config.K, los.user_rows.shape[0], los.user_cols.shape[0]))
    g *= np.sqrt(config.alpha)[:, None]
    np.conj(g, out=g)
    g *= los.a_n
    lam_inv = hermitian_inverse(stats.lam, "estimate correlation matrix")
    lam_inv_diag = np.real(np.diag(lam_inv)).copy()
    rho = config.beta * config.delta / (config.delta + 1.0)
    eigval, eigvec = np.linalg.eigh(stats.gram)
    r = np.sqrt(np.clip(eigval, 0.0, None))[:, None] * eigvec.conj().T
    r_lam = r @ lam_inv                      # column k is R l_k
    r_lam_r = r_lam @ r.conj().T
    weight = 1.0 + stats.scale * lam_inv_diag
    # the K matrices R M_k R^H, stacked: one eigvalsh call for all of them
    cols = r_lam.T
    m = weight[:, None, None] * r_lam_r - stats.scale * (cols[:, :, None] * np.conj(cols)[:, None, :])
    top = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))[:, -1]
    # M_k is PSD, so the top eigenvalue is never below c_k
    bounds = (weight / config.N + rho * np.maximum(top, 0.0)) * (1.0 + _BOUND_PAD)
    return FractionalProblem(g=g, lam_inv=lam_inv, lam_inv_diag=lam_inv_diag, rho=rho,
                             scale=stats.scale, spectral_bounds=bounds, gram=stats.gram)


class _Point:
    """An iterate v with what one product G v gives: u = G v, y = Z v = Lam^{-1} u,
    y2 = |y|^2, vv = ||v||^2, vbv = v^H B v, vcv = [v^H C_k v]_k and
    values = [f_k(v)]_k.  A plain slotted class: cheaper to define and to
    build than a named tuple, and built once per evaluated point."""

    __slots__ = ("v", "u", "y", "y2", "vv", "vbv", "vcv", "values")

    def __init__(self, v, u, y, y2, vv, vbv, vcv, values):
        self.v, self.u, self.y, self.y2 = v, u, y, y2
        self.vv, self.vbv, self.vcv, self.values = vv, vbv, vcv, values


def _point(problem: FractionalProblem, v: np.ndarray) -> _Point:
    """Evaluate the problem at v with one matrix-vector product, O(NK)."""
    rho = problem.rho
    u = problem.g @ v
    y = problem.lam_inv @ u
    y2 = np.abs(y)
    y2 *= y2
    vv = float(np.vdot(v, v).real)
    vbv = vv / problem.n + rho * float(np.vdot(u, y).real)
    vcv = problem.lam_inv_diag * vbv
    vcv -= rho * y2
    vcv *= problem.scale
    # not (min > 0) fails on a NaN form too
    if not _min(vcv) > 0.0:
        raise NumericalError(f"user {np.flatnonzero(~(vcv > 0.0))[0]}: denominator "
                             "quadratic form is not positive (degenerate problem)")
    values = vbv / vcv
    return _Point(v, u, y, y2, vv, vbv, vcv, np.log1p(values, out=values))


def fractional_objective(problem: FractionalProblem, v: np.ndarray) -> np.ndarray:
    """Per-user values f_k(v) = ln(1 + v^H B v / v^H C_k v), in nats."""
    return _point(problem, np.asarray(v, dtype=complex)).values


def _softmin(values: np.ndarray, mu: float) -> tuple[np.ndarray, float]:
    """``(weights, smoothed)``: the softmin weights exp(-mu f_k) / sum_j exp(-mu f_j),
    computed in log-space with a max shift, and the soft minimum
    -(1/mu) ln sum exp(-mu f_k), a lower bound on min f_k."""
    weights = values * -mu
    shift = float(_max(weights))
    weights -= shift
    np.exp(weights, out=weights)
    total = float(_sum(weights))
    weights /= total
    return weights, -(shift + math.log(total)) / mu


def _surrogate_factors(problem: FractionalProblem, p: _Point
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``(s, R)`` with fvec_k = s_k v + G^H r_k (r_k column k of R): O(K^2), no product by G.

    fvec_k is the vector of the linear touching minorant of f_k at v,

        f_k(v') >= const_k + 2 Re{fvec_k^H v'}   for all unit-modulus v',

    with equality at v' = v, and

        fvec_k = B v / v^H C_k v - psi_k (C_k v + B v - lam_k v),
        psi_k  = v^H B v / (v^H C_k v (v^H C_k v + v^H B v)),

    lam_k the spectral bound.  Expanding B v and C_k v in G gives

        alpha_k = 1 / v^H C_k v - psi_k (1 + scale [Lam^{-1}]_kk)
                = -scale rho psi_k |y_k|^2 / v^H B v,
        s_k = alpha_k / N + psi_k lam_k,
        r_k = alpha_k rho y + scale rho psi_k y_k l_k   (l_k = column k of Lam^{-1}).

    The second form of alpha_k and the K x K matrix R keep the cancellation
    of B's rank-K part against C_k's out of N-sized sums.  The steps use only
    weighted sums of the fvec_k (:func:`_weighted_fvec`) and their norms
    (:func:`_fvec_norms`), never the K x N array itself.
    """
    rho, scale, vbv = problem.rho, problem.scale, p.vbv
    psi = p.vcv + vbv
    psi *= p.vcv
    np.divide(vbv, psi, out=psi)
    alpha = psi * (-scale * rho / vbv)
    alpha *= p.y2
    s = alpha / problem.n
    s += psi * problem.spectral_bounds
    r = p.y[:, None] * (rho * alpha)
    psi *= scale * rho
    r += problem.lam_inv * (psi * p.y)
    return s, r


def _weighted_fvec(problem: FractionalProblem, p: _Point, s: np.ndarray, r: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """sum_k c_k fvec_k = (c . s) v + G^H (R c), with one product by G."""
    # G^H x = conj(conj(x) @ G): G's conjugate is never stored
    coeff = (r @ c).conj() @ problem.g
    np.conj(coeff, out=coeff)
    coeff += (c @ s) * p.v
    return coeff


def _fvec_norms(problem: FractionalProblem, p: _Point, s: np.ndarray, r: np.ndarray
                ) -> np.ndarray:
    """[||fvec_k||^2]_k = s_k^2 ||v||^2 + 2 s_k Re(u^H r_k) + r_k^H G G^H r_k, O(K^3)."""
    return (s * s * p.vv + 2.0 * s * (p.u.conj() @ r).real
            + (r.conj() * (problem.gram @ r)).sum(axis=0).real)


def _phase_align(coeff: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit-modulus maximizer of Re{coeff^H v}; zero entries keep ``fallback``."""
    out = np.exp(1j * np.arctan2(coeff.imag, coeff.real))
    if not coeff.all():
        zero = coeff == 0
        out[zero] = fallback[zero]
    return out


def _maxsum_coeff(problem: FractionalProblem, p: _Point) -> np.ndarray:
    return _weighted_fvec(problem, p, *_surrogate_factors(problem, p), np.ones(problem.k))


def _maxmin_from(problem: FractionalProblem, p: _Point, weights: np.ndarray, floor: float,
                 mu: float) -> tuple[_Point, np.ndarray, float, int]:
    """One closed-form smoothed-min ascent step from p, guarded to never lower the objective.

    ``(weights, floor)`` is the ``_softmin`` of p.  The softmin weights w_k
    reweight the per-user surrogate vectors into f_bar = sum_k w_k f_k^n.
    The concave log-sum-exp of the linear minorants is itself minorized by a
    quadratic whose curvature 2 mu (sum_k w_k ||f_k^n||^2 - ||f_bar||^2), the
    weighted spread of the f_k^n about f_bar, enters the aligned coefficient
    as that multiple of p's v.  The weights move along the step, so this
    centred curvature is not a guaranteed minorant: while the step does not
    raise the smoothed minimum the curvature is doubled, up to the valid
    constant 2 mu max_k ||f_k^n||^2.  Two products by G per step; no K x N
    array.  Returns the new point with its ``_softmin`` and the number of
    times the guard raised the curvature.  Raises :class:`NumericalError`
    when the valid constant is not finite (the surrogate norms overflow, as
    at p = 1e300), where the guard could never end.
    """
    s, r = _surrogate_factors(problem, p)
    fbar = _weighted_fvec(problem, p, s, r, weights)
    norm2 = _fvec_norms(problem, p, s, r)
    valid = 2.0 * mu * float(_max(norm2))
    if not math.isfinite(valid):
        # the guard below ends only once prox reaches a finite valid constant
        raise NumericalError("min-rate step: surrogate norms are not finite")
    spread = float(weights @ norm2) - float(np.vdot(fbar, fbar).real)
    prox = min(2.0 * mu * max(spread, 0.0), valid)
    doubled = 0
    while True:
        coeff = p.v * prox
        coeff += fbar
        new = _point(problem, _phase_align(coeff, p.v))
        new_weights, smoothed = _softmin(new.values, mu)
        if prox >= valid or smoothed >= floor:
            return new, new_weights, smoothed, doubled
        prox = min(2.0 * prox, valid) if prox > 0.0 else valid
        doubled += 1


@dataclass(frozen=True)
class OptTrace:
    """Record of one optimizer run.

    ``iterates`` lists (iteration, accepted objective value, backtrack
    count); accepted objective values are nondecreasing.  ``final_v`` is the
    best visited point measured by the true objective (for the min objective
    the accepted sequence tracks its smooth surrogate, so the best true
    minimum over accepted iterates is returned).  ``curvature_doublings``
    counts the curvature raises of the min step's guard (:func:`_maxmin_from`)
    over the run; it is 0 for the sum objective.
    """

    iterates: list[tuple[int, float, int]]
    converged: bool
    final_v: PhaseShifts
    curvature_doublings: int

    @property
    def iterations(self) -> int:
        return self.iterates[-1][0]


_MAX_BACKTRACK = 30


def mm_optimize(config: SystemConfig, objective: str = "sum",
                init: PhaseShifts | None = None, max_iter: int = 500,
                rel_tol: float = 1e-6) -> OptTrace:
    """Maximize the sum rate or the minimum user rate over RIS phases.

    ``objective`` is ``"sum"`` (sum of f_k) or ``"min"`` (log-sum-exp
    smoothed minimum with sharpness ``config.mu``; the smoothing is what
    makes monotone closed-form steps possible).  Each iteration takes two
    closed-form steps (the phase alignment to the summed surrogate vectors,
    :func:`_maxsum_coeff`, or the guarded :func:`_maxmin_from`), extrapolates
    through them, and halves the extrapolation back (at most 30 times) until
    the objective does not decrease; the plain second step is accepted if
    extrapolation never helps (both steps are ascent steps: the sum step
    exactly, the min step by its guard).  Every point is evaluated once: the
    product G v that gives its objective is reused by the step taken from
    it.  Terminates when the relative objective change drops below
    ``rel_tol`` or after ``max_iter`` iterations.

    Defaults to the identity phase configuration when ``init`` is omitted.
    Raises :class:`NumericalError` when the best point is not finite.
    """
    if objective not in ("sum", "min"):
        raise ConfigError(f"objective must be 'sum' or 'min', got {objective!r}")
    problem = build_problem(config)
    if init is None:
        init = PhaseShifts.identity(config.N)
    if init.n != config.N:
        raise ConfigError(f"init has {init.n} entries, config expects {config.N}")

    # a state is (point, ..., accepted objective): the min objective carries
    # the softmin weights of its point as well, for the step taken from it
    mu = config.mu
    doublings = 0
    if objective == "sum":
        def evaluate(v):
            p = _point(problem, v)
            return p, float(_sum(p.values))

        def step(state):
            p = state[0]
            return evaluate(_phase_align(_maxsum_coeff(problem, p), p.v))

        def true_value(p):
            return float(_sum(p.values))
    else:
        def evaluate(v):
            p = _point(problem, v)
            return (p, *_softmin(p.values, mu))

        def step(state):
            nonlocal doublings
            p, weights, smoothed, doubled = _maxmin_from(problem, *state, mu)
            doublings += doubled
            return p, weights, smoothed

        def true_value(p):
            return float(_min(p.values))

    # an overflow (as at p = 1e300) is reported by the finite checks, not as a warning
    with np.errstate(over="ignore"):
        state = evaluate(init.v.copy())
        obj = state[-1]
        best_true = true_value(state[0])
        best_v = state[0].v
        iterates = [(0, obj, 0)]
        converged = False

        for it in range(1, max_iter + 1):
            s1 = step(state)
            s2 = step(s1)
            v = state[0].v
            d1 = s1[0].v - v
            d2 = s2[0].v - s1[0].v
            d2 -= d1
            d1_norm = math.sqrt(np.vdot(d1, d1).real)
            d2_norm = math.sqrt(np.vdot(d2, d2).real)

            backtracks = 0
            new = s2
            if d1_norm != 0.0 and d2_norm != 0.0:
                rho = -d1_norm / d2_norm
                while True:
                    # -exp(i angle(x)); arctan2 is np.angle without its Python wrapper
                    x = v - 2.0 * rho * d1 + rho**2 * d2
                    cand = evaluate(-np.exp(1j * np.arctan2(x.imag, x.real)))
                    if cand[-1] >= obj or backtracks >= _MAX_BACKTRACK:
                        break
                    rho = (rho - 1.0) / 2.0
                    backtracks += 1
                if cand[-1] >= obj:
                    new = cand
            obj_new = new[-1]

            iterates.append((it, obj_new, backtracks))
            tv = true_value(new[0])
            if tv > best_true:
                best_true = tv
                best_v = new[0].v
            change = abs(obj_new - obj)
            obj = obj_new
            state = new
            if change <= rel_tol * max(abs(obj), 1e-12):
                converged = True
                break

    if not np.all(np.isfinite(best_v)):
        raise NumericalError(f"{objective} objective: the designed phases are not finite")
    return OptTrace(iterates=iterates, converged=converged, final_v=PhaseShifts(best_v),
                    curvature_doublings=doublings)


def align_phase(config: SystemConfig, k: int) -> PhaseShifts:
    """Phases that focus the RIS beam on user k (0-based).

    Sets theta_n = -angle(conj(a_N[n]) * hbar_k[n]), which makes the beam
    response a_N^H Phi hbar_k equal to N exactly.  Both vectors are
    Kronecker products of per-axis factors, so the profile is the separable
    kron(conj(r) * r_k, conj(c) * c_k) (:meth:`PhaseShifts.from_factors`):
    O(L_x + L_y) time and memory, nothing of size N.
    """
    if not 0 <= k < config.K:
        raise ConfigError(f"user index {k} out of range for K={config.K}")
    los = build_los(config)
    return PhaseShifts.from_factors(np.conj(los.ris_rows) * los.user_rows[:, k],
                                    np.conj(los.ris_cols) * los.user_cols[:, k])


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
