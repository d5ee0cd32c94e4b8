

import json

import numpy as np
import pytest

from riszf.config import (CircleGeometry, circle_layout, dbm_to_watt,
                          default_profile, parse_config_file, path_loss, watt_to_dbm,
                          write_config_file)
from riszf.errors import ConfigError

from conftest import toy_config


def test_dbm_round_trip():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)
    assert dbm_to_watt(-104.0) == pytest.approx(10 ** (-13.4))
    assert watt_to_dbm(dbm_to_watt(17.3)) == pytest.approx(17.3)
    with pytest.raises(ConfigError):
        watt_to_dbm(0.0)


@pytest.mark.parametrize("changes", [
    dict(M=8, K=8),             # ZF needs K < M
    dict(tau=2),                # tau >= K
    dict(tau=2000),             # tau <= tau_c
    dict(p=0.0),
    dict(sigma2=-1.0),
    dict(delta=-0.5),
    dict(beta=-1e-9),
    dict(mu=0.0),
    dict(d_over_lambda=0.0),
    dict(delta=np.inf),         # every value must be finite
    dict(delta=np.nan),
    dict(beta=np.inf),
    dict(mu=np.inf),
    dict(d_over_lambda=np.nan),
    dict(M=np.nan),             # integer fields too, before int() sees them
    dict(N=np.inf),
    dict(N=10**400),            # an integer too large for a float
])
def test_invalid_scalars_rejected(changes):
    cfg = toy_config()
    with pytest.raises(ConfigError):
        cfg.replace(**changes)


def test_invalid_arrays_rejected():
    cfg = toy_config()
    with pytest.raises(ConfigError):
        cfg.replace(alpha=np.array([1.0, 2.0]))  # wrong length
    with pytest.raises(ConfigError):
        cfg.replace(gamma=np.array([1.0, 0.0, 1.0]))  # direct links must carry power
    with pytest.raises(ConfigError):
        cfg.replace(alpha=np.array([1.0, -1.0, 1.0]))
    for changes in (dict(alpha=np.array([1.0, np.inf, 1.0])),  # every value must be finite
                    dict(gamma=np.array([1.0, 1.0, np.inf])),
                    dict(user_ris_angles=np.array([[0.1, 0.2], [np.nan, 0.2], [0.3, 0.4]])),
                    dict(ris_aod=(np.inf, 0.5)),
                    dict(bs_aoa=(0.5, np.nan)),
                    dict(user_ris_dist=np.array([1.0, np.inf, 2.0]))):
        with pytest.raises(ConfigError):
            cfg.replace(**changes)


def test_ris_off_configs_allowed():
    cfg = toy_config().replace(alpha=np.zeros(3), beta=0.0)
    assert np.all(cfg.alpha == 0.0)


def test_tau_overhead_and_pilot_snr():
    cfg = toy_config(tau=8, tau_c=196, p=2.0, sigma2=0.5)
    assert cfg.tau_overhead == pytest.approx(188 / 196)
    assert cfg.tau * cfg.p / cfg.sigma2 == pytest.approx(8 * 2.0 / 0.5)


def test_circle_layout_sorted_and_floored():
    geo = circle_layout(8)
    assert isinstance(geo, CircleGeometry)
    assert np.all(np.diff(geo.d_user_ris) >= 0)
    assert geo.d_ris_bs == pytest.approx(700.0)
    assert np.all(geo.d_user_bs > 690)
    # odd K drops one slot onto the RIS; the floor keeps it finite
    geo3 = circle_layout(3)
    assert geo3.d_user_ris.min() == pytest.approx(1.0)


def test_path_loss_reference():
    assert path_loss(1.0, 2.0) == pytest.approx(1e-3)
    assert path_loss(10.0, 2.0) == pytest.approx(1e-5)


def test_default_profile_shape():
    cfg = default_profile()
    assert (cfg.M, cfg.N, cfg.K) == (64, 64, 8)
    assert cfg.tau == 8 and cfg.tau_c == 196
    assert cfg.p == pytest.approx(1.0)
    assert cfg.sigma2 == pytest.approx(dbm_to_watt(-104.0))
    assert cfg.delta == 1.0 and cfg.mu == 10.0
    # nearest-first ordering carries into the path losses
    assert np.all(np.diff(cfg.alpha) <= 0)
    assert cfg.user_ris_dist is not None
    # seeded variant draws different angles but same powers
    other = default_profile(seed=1)
    assert not np.allclose(other.user_ris_angles, cfg.user_ris_angles)
    assert np.allclose(other.alpha, cfg.alpha)


def test_default_profile_angle_spread():
    # any two bundled users stay weakly coupled across array sizes
    from riszf.channel import steering_vector
    for n in (16, 64, 256):
        cfg = default_profile(N=n)
        h = np.stack([steering_vector(n, az, el) for az, el in cfg.user_ris_angles], axis=1)
        gram = np.abs(h.conj().T @ h) / n
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.15


def test_config_file_round_trip(tmp_path):
    cfg = default_profile(K=4, M=16, N=32)
    path = tmp_path / "scenario.cfg"
    write_config_file(cfg, path)
    parsed = parse_config_file(path)
    assert parsed.M == cfg.M and parsed.N == cfg.N and parsed.K == cfg.K
    assert parsed.p == cfg.p and parsed.sigma2 == cfg.sigma2
    np.testing.assert_array_equal(parsed.alpha, cfg.alpha)
    np.testing.assert_array_equal(parsed.gamma, cfg.gamma)
    np.testing.assert_array_equal(parsed.user_ris_angles, cfg.user_ris_angles)
    assert parsed.ris_aod == cfg.ris_aod and parsed.bs_aoa == cfg.bs_aoa
    assert parsed.to_dict() == cfg.to_dict()
    # numpy scalars are stored as Python floats, so they round-trip and serialize
    numpy_scalars = cfg.replace(delta=np.float64(2.0), p=np.float32(0.5))
    write_config_file(numpy_scalars, path)
    assert parse_config_file(path).to_dict() == numpy_scalars.to_dict()
    json.dumps(numpy_scalars.to_dict())


def test_config_file_dbm_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment line\n"
        "M = 8\nN = 4\nK = 2\ntau_c = 100\ntau = 4\n"
        "p_dbm = 30  # trailing comment\n"
        "sigma2_dbm = -104\n"
        "delta = 1.0\nbeta = 1e-9\n"
        "alpha = 1e-5, 2e-5\ngamma = 1e-14, 2e-14\n"
        "user_ris_az = 0.1, 0.2\nuser_ris_el = 1.0, 1.1\n"
        "ris_aod_az = 0.5\nris_aod_el = 0.6\nbs_aoa_az = 0.7\nbs_aoa_el = 0.8\n"
    )
    cfg = parse_config_file(path)
    assert cfg.p == pytest.approx(1.0)
    assert cfg.sigma2 == pytest.approx(dbm_to_watt(-104))
    assert cfg.tau == 4


@pytest.mark.parametrize("mutation, message", [
    ("p_w = 1.0\n", "exactly one"),          # both p_w and p_dbm
    ("bogus_key = 3\n", "unknown"),
    ("", "missing"),
    ("user_ris_el = 1.0\n", "same length"),
    ("p_dbm = abc\n", "cannot parse p_dbm"),
    ("p_dbm = 4000\n", "out of range"),     # 10^397 W overflows a float
])
def test_config_file_errors(tmp_path, mutation, message):
    base = (
        "M = 8\nN = 4\nK = 2\ntau_c = 100\ntau = 4\n"
        "p_dbm = 30\nsigma2_dbm = -104\n"
        "delta = 1.0\nbeta = 1e-9\n"
        "alpha = 1e-5, 2e-5\ngamma = 1e-14, 2e-14\n"
        "user_ris_az = 0.1, 0.2\nuser_ris_el = 1.0, 1.1\n"
        "ris_aod_az = 0.5\nris_aod_el = 0.6\nbs_aoa_az = 0.7\n"
    )
    # base omits bs_aoa_el so the "" mutation exercises the missing-key path
    if message != "missing":
        base += "bs_aoa_el = 0.8\n"
    # a mutation line replaces the base line with the same key
    keys = {line.split("=")[0].strip() for line in mutation.splitlines()}
    kept = [line + "\n" for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    path = tmp_path / "bad.cfg"
    path.write_text("".join(kept) + mutation)
    with pytest.raises(ConfigError, match=message):
        parse_config_file(path)


def test_replace_revalidates():
    cfg = toy_config()
    with pytest.raises(ConfigError):
        cfg.replace(M=2)  # K=3 >= M
    bigger = cfg.replace(M=20)
    assert bigger.M == 20 and bigger.K == cfg.K


def test_element_count_beyond_memory_rejected():
    cfg = default_profile()
    with pytest.raises(ConfigError, match=r"needs an estimated .* GiB"):
        cfg.replace(N=10**11).check_memory()
    cfg.replace(N=10**6).check_memory()


def test_to_dict_json_ready():
    import json
    payload = default_profile(K=2, M=8, N=8).to_dict()
    text = json.dumps(payload)
    assert "alpha" in text and "user_ris_az" in text
