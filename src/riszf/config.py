"""Scenario parameters, unit conversions, geometry helper, and config files.

All internal math runs in watts; dBm values are converted exactly once, at
ingestion (either through :func:`dbm_to_watt` or the ``*_dbm`` keys of a
config file).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Reference loss at 1 m used by the bundled path-loss model, in dB.
REF_LOSS_DB = 30.0

#: Path-loss exponents of the bundled profile: (user-RIS, RIS-BS, user-BS).
#: Illustrative textbook values (LoS, mildly obstructed, heavily blocked);
#: they are artifact defaults, not measured constants.
DEFAULT_EXPONENTS = (2.0, 2.2, 4.0)


def dbm_to_watt(x_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(x_w: float) -> float:
    """Convert a power from watts to dBm."""
    if x_w <= 0.0:
        raise ConfigError("power must be positive to express in dBm")
    return 10.0 * math.log10(x_w) + 30.0


@dataclass(frozen=True)
class SystemConfig:
    """Uplink scenario: a BS with M antennas, an RIS with N elements, K users.

    Path-loss factors are linear power gains: ``alpha[k]`` for the user-RIS
    link, ``beta`` for the RIS-BS link, ``gamma[k]`` for the direct user-BS
    link.  ``delta`` is the Rician factor of the RIS-BS link (0 = Rayleigh,
    large = pure LoS).  ``alpha``/``beta`` may be zero to model a switched-off
    RIS; the direct links must carry power (``gamma > 0``).  Every value must
    be finite.  Construction (and :meth:`replace`) is the one check on
    scenario values: integral counts are stored as ``int``, scalars as
    ``float``, arrays as read-only float arrays, and anything else raises
    :class:`ConfigError`.

    Angles are (azimuth, elevation) pairs in radians: ``user_ris_angles[k]``
    for the arrival at the RIS from user k, ``ris_aod`` for the departure
    from the RIS toward the BS, ``bs_aoa`` for the arrival at the BS.

    ``user_ris_dist`` is optional metadata (meters) filled in by the geometry
    helper; it drives nearest/farthest-user selection in the harness.
    """

    M: int
    N: int
    K: int
    tau_c: int
    tau: int
    p: float
    sigma2: float
    delta: float
    beta: float
    alpha: np.ndarray
    gamma: np.ndarray
    user_ris_angles: np.ndarray
    ris_aod: tuple[float, float]
    bs_aoa: tuple[float, float]
    d_over_lambda: float = 0.5
    mu: float = 10.0
    user_ris_dist: np.ndarray | None = None

    def __post_init__(self):
        for name in ("M", "N", "K", "tau_c", "tau"):
            value = getattr(self, name)
            try:
                valid = math.isfinite(value) and int(value) == value and value >= 1
            except OverflowError:
                raise ConfigError(f"{name} is too large to fit a float") from None
            if not valid:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("p", "sigma2", "delta", "beta", "d_over_lambda", "mu"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.K >= self.M:
            raise ConfigError(f"ZF needs K < M, got K={self.K}, M={self.M}")
        if self.tau < self.K:
            raise ConfigError(f"orthogonal pilots need tau >= K, got tau={self.tau}, K={self.K}")
        if self.tau > self.tau_c:
            raise ConfigError(f"tau={self.tau} exceeds the coherence interval tau_c={self.tau_c}")
        if self.p <= 0.0:
            raise ConfigError(f"transmit power must be positive, got p={self.p}")
        if self.sigma2 <= 0.0:
            raise ConfigError(f"noise power must be positive, got sigma2={self.sigma2}")
        if self.delta < 0.0:
            raise ConfigError(f"Rician factor must be nonnegative, got delta={self.delta}")
        if self.beta < 0.0:
            raise ConfigError(f"RIS-BS path loss must be nonnegative, got beta={self.beta}")
        if self.d_over_lambda <= 0.0:
            raise ConfigError("element spacing d_over_lambda must be positive")
        if self.mu <= 0.0:
            raise ConfigError("log-sum-exp sharpness mu must be positive")

        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        angles = np.asarray(self.user_ris_angles, dtype=float)
        if alpha.shape != (self.K,):
            raise ConfigError(f"alpha must have shape ({self.K},), got {alpha.shape}")
        if gamma.shape != (self.K,):
            raise ConfigError(f"gamma must have shape ({self.K},), got {gamma.shape}")
        if angles.shape != (self.K, 2):
            raise ConfigError(f"user_ris_angles must have shape ({self.K}, 2), got {angles.shape}")
        if np.any(alpha < 0.0):
            raise ConfigError("user-RIS path losses alpha must be nonnegative")
        if np.any(gamma <= 0.0):
            raise ConfigError("direct-link path losses gamma must be strictly positive")
        for arr in (alpha, gamma, angles):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "user_ris_angles", angles)
        object.__setattr__(self, "ris_aod", (float(self.ris_aod[0]), float(self.ris_aod[1])))
        object.__setattr__(self, "bs_aoa", (float(self.bs_aoa[0]), float(self.bs_aoa[1])))
        if self.user_ris_dist is not None:
            dist = np.asarray(self.user_ris_dist, dtype=float)
            if dist.shape != (self.K,):
                raise ConfigError(f"user_ris_dist must have shape ({self.K},), got {dist.shape}")
            dist.setflags(write=False)
            object.__setattr__(self, "user_ris_dist", dist)
        for name in ("alpha", "gamma", "user_ris_angles", "ris_aod", "bs_aoa", "user_ris_dist"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite")

    @property
    def tau_overhead(self) -> float:
        """Fraction of the coherence interval left for data, (tau_c - tau) / tau_c."""
        return (self.tau_c - self.tau) / self.tau_c

    def check_memory(self) -> None:
        """Raise :class:`ConfigError` if the O(N) working set exceeds physical memory.

        The estimate is the largest O(N) working set, as traced:
        ``build_problem``'s K x N arrays G and Z = Lam^{-1} G plus the phase
        vector, (2K + 1)*16*N bytes of complex128.  It is conservative for
        an alignment or identity point, whose separable phase and closed
        forms allocate nothing of size N.  Construction does not call this,
        because the closed-form statistics and bounds take O(K^2) memory at
        any N; the config-file reader and every sweep point do, before
        anything allocates an N-sized array.
        """
        need = (2 * self.K + 1) * 16 * self.N
        try:
            have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # a platform without these
            return
        if need > have:
            raise ConfigError(f"N={self.N} needs an estimated {need / 2**30:.3g} GiB "
                              f"((2K + 1)*16*N bytes), more than the {have / 2**30:.3g} GiB "
                              f"of physical memory")

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced (re-validated).

        The copy is a new instance, so it starts with none of the values
        that :func:`_once_per_config` functions stored on this one.
        """
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dict of every field (arrays as lists, powers in watts)."""
        return {
            "M": self.M,
            "N": self.N,
            "K": self.K,
            "tau_c": self.tau_c,
            "tau": self.tau,
            "p_w": self.p,
            "sigma2_w": self.sigma2,
            "delta": self.delta,
            "beta": self.beta,
            "alpha": self.alpha.tolist(),
            "gamma": self.gamma.tolist(),
            "user_ris_az": self.user_ris_angles[:, 0].tolist(),
            "user_ris_el": self.user_ris_angles[:, 1].tolist(),
            "ris_aod_az": self.ris_aod[0],
            "ris_aod_el": self.ris_aod[1],
            "bs_aoa_az": self.bs_aoa[0],
            "bs_aoa_el": self.bs_aoa[1],
            "d_over_lambda": self.d_over_lambda,
            "mu": self.mu,
            "user_ris_dist": None if self.user_ris_dist is None else self.user_ris_dist.tolist(),
        }


def _once_per_config(build):
    """Decorate ``build(config)`` to run once per :class:`SystemConfig` instance.

    The result is stored on the instance as a non-field attribute, so
    equality, ``repr``, :meth:`SystemConfig.to_dict` and
    :meth:`SystemConfig.replace` never see it, and it lives as long as the
    instance.  Fields are frozen and arrays read-only, so it cannot go
    stale.  The arrays of the result are made read-only too: a caller that
    writes to one fails loudly instead of corrupting later calls.  Two
    threads racing on the first call compute equal values; either is kept.
    """
    key = f"_{build.__name__}"

    @functools.wraps(build)
    def once(config):
        value = config.__dict__.get(key)
        if value is None:
            value = build(config)
            for array in vars(value).values():
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            object.__setattr__(config, key, value)
        return value
    return once


@dataclass(frozen=True)
class CircleGeometry:
    """Distances of the bundled layout: BS at origin, RIS on a wall near users."""

    d_user_ris: np.ndarray
    d_user_bs: np.ndarray
    d_ris_bs: float


def circle_layout(K) -> CircleGeometry:
    """Place K users on a circle and return link distances, nearest-first.

    The BS sits at (0, 0), the RIS at (0, 700) and the users on a circle of
    radius 10 m centered at (10, 700), at deterministic equally spaced
    slots.  Users are ordered by increasing user-RIS distance: index 0 is
    the nearest user, index K-1 the farthest.  Distances are floored at 1 m
    (the far-field reference of the path-loss model), which matters when a
    slot lands on the RIS itself.
    """
    slots = np.pi * (2.0 * np.arange(K) + 1.0) / K
    x, y = 10.0 + 10.0 * np.cos(slots), 700.0 + 10.0 * np.sin(slots)
    d_ur = np.maximum(np.hypot(x, y - 700.0), 1.0)
    d_ub = np.maximum(np.hypot(x, y), 1.0)
    order = np.argsort(d_ur, kind="stable")
    return CircleGeometry(d_user_ris=d_ur[order], d_user_bs=d_ub[order], d_ris_bs=700.0)


def path_loss(distance, exponent):
    """Linear power gain at the given distance: 10^(-REF_LOSS_DB/10) * d^(-exponent)."""
    return 10.0 ** (-REF_LOSS_DB / 10.0) * np.asarray(distance, dtype=float) ** (-exponent)


def _coprime_stride(K: int) -> int:
    stride = max(1, round(0.382 * K))
    while math.gcd(stride, K) != 1:
        stride += 1
    return stride


def spread_angles(K: int) -> np.ndarray:
    """Deterministic well-separated user directions, shape (K, 2).

    A URA response depends on the angles only through u = sin(el)*sin(az)
    and c = cos(el).  Users are placed on an equally spaced u-grid spanning
    [-0.84, 0.84] and a stride-permuted c-grid spanning [-0.5, 0.5], so any
    two users are far apart in at least one coordinate and their steering
    vectors stay weakly coupled at every array size.
    """
    k = np.arange(K)
    u = 0.84 * (2.0 * (k + 0.5) / K - 1.0)
    perm = (_coprime_stride(K) * k) % K
    c = 0.5 * (2.0 * (perm + 0.5) / K - 1.0)
    return _angles_from_beam_coords(u, c)


def _angles_from_beam_coords(u, c) -> np.ndarray:
    elevation = np.arccos(np.asarray(c, dtype=float))
    azimuth = np.arcsin(np.asarray(u, dtype=float) / np.sin(elevation))
    return np.stack([azimuth, elevation], axis=1)


#: Beam coordinates (u, c) of the bundled profile, numerically tuned so that
#: the worst pairwise steering-vector coupling |h_i^H h_j| / N stays below
#: 0.1 for every array size from 16 to 400 elements (and keeps shrinking
#: beyond).  Distinct users never share either coordinate, so couplings stay
#: bounded as the array grows.
_BEAM_TABLE = (
    (-0.2377, -0.458), (-0.141, 0.0417), (0.8575, -0.0105), (-0.5994, 0.3193),
    (0.3223, -0.1614), (0.7563, -0.5544), (-0.692, -0.2208), (0.4558, 0.3806),
)


def beam_directions(K: int) -> np.ndarray:
    """Deterministic user directions for the bundled profile, shape (K, 2).

    Up to 8 users take rows of the tuned beam table; larger K falls back to
    the continuous :func:`spread_angles` grid.
    """
    if K <= len(_BEAM_TABLE):
        coords = np.array(_BEAM_TABLE[:K])
        return _angles_from_beam_coords(coords[:, 0], coords[:, 1])
    return spread_angles(K)


#: Fixed RIS departure / BS arrival directions of the bundled profile
#: (azimuth, elevation); the departure elevation keeps cos(el) outside the
#: user grid of :func:`spread_angles`, so the shared beam stays generic.
DEFAULT_RIS_AOD = (1.1, 0.8)
DEFAULT_BS_AOA = (2.2, 1.1)


def default_profile(M=64, N=64, K=8, delta=1.0, seed=None) -> SystemConfig:
    """Build the bundled reference scenario.

    Geometry: the :func:`circle_layout`, users ordered nearest-to-RIS
    first.  Path losses follow :func:`path_loss` with
    :data:`DEFAULT_EXPONENTS`.  User directions come from
    :func:`beam_directions` (the tuned beam table for K <= 8, the
    :func:`spread_angles` grid beyond) unless ``seed`` is an integer, in
    which case they are drawn uniformly at random.  The scalar defaults
    (K=8, M=N=64, delta=1, tau_c=196, tau=K, p=30 dBm, sigma2=-104 dBm,
    mu=10) describe the default operating point; the path-loss constants
    and angles are illustrative, not measurements.  Override any other
    field through :meth:`SystemConfig.replace`.
    """
    geo = circle_layout(K)
    if seed is None:
        user_angles = beam_directions(K)
        ris_aod = DEFAULT_RIS_AOD
        bs_aoa = DEFAULT_BS_AOA
    else:
        rng = np.random.default_rng(seed)
        user_angles = np.stack([rng.uniform(0.0, 2.0 * np.pi, K),
                                rng.uniform(0.0, np.pi, K)], axis=1)
        ris_aod = (rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi))
        bs_aoa = (rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi))
    exp_ur, exp_rb, exp_ub = DEFAULT_EXPONENTS
    return SystemConfig(
        M=M, N=N, K=K, tau_c=196, tau=K,
        p=dbm_to_watt(30.0), sigma2=dbm_to_watt(-104.0),
        delta=delta,
        beta=float(path_loss(geo.d_ris_bs, exp_rb)),
        alpha=path_loss(geo.d_user_ris, exp_ur),
        gamma=path_loss(geo.d_user_bs, exp_ub),
        user_ris_angles=user_angles,
        ris_aod=ris_aod,
        bs_aoa=bs_aoa,
        user_ris_dist=geo.d_user_ris,
    )


# --- flat key-value config files -------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


#: Every config-file key with its value parser: the keys of
#: :meth:`SystemConfig.to_dict` in order, then ``p_dbm``/``sigma2_dbm``,
#: the dBm alternatives to ``p_w``/``sigma2_w``.
_FILE_KEYS = {
    "M": int, "N": int, "K": int, "tau_c": int, "tau": int,
    "p_w": float, "sigma2_w": float, "delta": float, "beta": float,
    "alpha": _float_list, "gamma": _float_list,
    "user_ris_az": _float_list, "user_ris_el": _float_list,
    "ris_aod_az": float, "ris_aod_el": float, "bs_aoa_az": float, "bs_aoa_el": float,
    "d_over_lambda": float, "mu": float, "user_ris_dist": _float_list,
    "p_dbm": float, "sigma2_dbm": float,
}


def parse_config_file(path) -> SystemConfig:
    """Read a flat ``key = value`` config file into a :class:`SystemConfig`.

    Blank lines and ``#`` comments are ignored; arrays are comma-separated.
    The keys are those of :meth:`SystemConfig.to_dict`; the fields with a
    default (``d_over_lambda``, ``mu``, ``user_ris_dist``) may be left out.
    Powers carry an explicit unit suffix: exactly one of ``p_w``/``p_dbm``
    and one of ``sigma2_w``/``sigma2_dbm``.
    """
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value

    unknown = sorted(set(raw) - set(_FILE_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    try:
        for key, text in raw.items():
            values[key] = _FILE_KEYS[key](text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {text!r}") from exc
    for name in ("p", "sigma2"):
        watt_key, dbm_key = f"{name}_w", f"{name}_dbm"
        if (watt_key in values) == (dbm_key in values):
            raise ConfigError(f"exactly one of {watt_key!r} or {dbm_key!r} is required")
        if dbm_key in values:
            try:
                values[watt_key] = dbm_to_watt(values.pop(dbm_key))
            except OverflowError as exc:
                raise ConfigError(f"{dbm_key} = {raw[dbm_key]} is out of range") from exc
    optional = {f.name for f in dataclasses.fields(SystemConfig)
                if f.default is not dataclasses.MISSING}
    missing = [key for key in _FILE_KEYS
               if key not in values and key not in optional and not key.endswith("_dbm")]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    if len(values["user_ris_az"]) != len(values["user_ris_el"]):
        raise ConfigError("user_ris_az and user_ris_el must have the same length")

    config = SystemConfig(
        p=values.pop("p_w"), sigma2=values.pop("sigma2_w"),
        user_ris_angles=np.stack([values.pop("user_ris_az"), values.pop("user_ris_el")], axis=1),
        ris_aod=(values.pop("ris_aod_az"), values.pop("ris_aod_el")),
        bs_aoa=(values.pop("bs_aoa_az"), values.pop("bs_aoa_el")),
        **values,
    )
    config.check_memory()
    return config


def write_config_file(config: SystemConfig, path) -> None:
    """Write ``config`` in the flat key-value format (round-trips exactly)."""
    lines = []
    for key, value in config.to_dict().items():
        if isinstance(value, list):
            lines.append(f"{key} = " + ", ".join(map(repr, value)))
        elif value is not None:
            lines.append(f"{key} = {value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
