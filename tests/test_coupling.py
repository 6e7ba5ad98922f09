import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cavitykit import coupling
from cavitykit.coupling import (
    DEFAULT_REGION_M, FieldGrid, WeightingConfig,
    dipole_from_lifetime, effective_g0, ensemble_weighting_factor, g0_ideal,
    ideal_coupling, load_field_grid, mode_volume, normalized_mode_volume,
    save_field_grid, to_debye, zero_point_field,
)
from cavitykit.synthetic import synthetic_field_grid
from cavitykit.units import C0


def _uniform_grid(value=1.0, dims=(2, 2, 2), eps=1.0, spacing=1e-9):
    e = np.zeros(dims + (3,))
    e[..., 1] = value
    return FieldGrid(e_field=e, eps_rel=np.full(dims, eps),
                     spacing_m=(spacing,) * 3)


def _sin3_grid(n=33, box=1e-6):
    # cell-centered samples of a separable sin profile over a box; odd n puts
    # a sample exactly on the maximum
    dx = box / n
    x = (np.arange(n) + 0.5) * dx
    s = np.sin(np.pi * x / box)
    prof = s[:, None, None] * s[None, :, None] * s[None, None, :]
    e = np.zeros((n, n, n, 3))
    e[..., 2] = prof
    return FieldGrid(e_field=e, eps_rel=np.ones((n, n, n)),
                     spacing_m=(dx,) * 3, origin_m=(0.5 * dx,) * 3)


ALL_SPACE = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


# ---------------------------------------------------------------------------
# mode volume
# ---------------------------------------------------------------------------

def test_mode_volume_uniform_field_is_box_volume():
    grid = _uniform_grid(value=2.5, dims=(4, 3, 5), eps=3.0, spacing=2e-9)
    v_box = 4 * 3 * 5 * (2e-9) ** 3
    assert mode_volume(grid) == pytest.approx(v_box, rel=1e-12)


def test_mode_volume_sin3_profile():
    # int sin^2 = 1/2 per axis and max = 1, so V = V_box / 8; the
    # cell-centered sin^2 sum is exact for this sampling
    box = 1e-6
    grid = _sin3_grid(n=33, box=box)
    assert mode_volume(grid) == pytest.approx(box ** 3 / 8.0, rel=1e-12)


def test_mode_volume_scale_invariance():
    grid = _sin3_grid(n=9)
    v = mode_volume(grid)
    scaled = FieldGrid(e_field=grid.e_field * 3.7e4, eps_rel=grid.eps_rel,
                       spacing_m=grid.spacing_m, origin_m=grid.origin_m)
    assert mode_volume(scaled) == pytest.approx(v, rel=1e-12)


def test_mode_volume_zero_field_raises():
    grid = _uniform_grid(value=0.0)
    with pytest.raises(ValueError):
        mode_volume(grid)


def test_overflowing_field_is_rejected():
    # |E|^2 overflows float64 at every point; the grid names the first one
    with pytest.raises(ValueError, match=r"\|E\|\^2 overflows float64 at grid index \(0, 0, 0\)"):
        _uniform_grid(value=1e160)
    # |E|^2 fits, eps*|E|^2 does not
    with pytest.raises(ValueError, match=r"eps\*\|E\|\^2 overflows float64"):
        _uniform_grid(value=1e154, eps=1e10)
    # every cell fits, their sum does not
    grid = _uniform_grid(value=1e154)
    with pytest.raises(ValueError, match=r"sum of eps\*\|E\|\^2 overflows"):
        mode_volume(grid)


def test_normalized_mode_volume():
    lam, n = 631.1e-9, math.sqrt(5.7)
    v = 0.5 * (lam / n) ** 3
    assert normalized_mode_volume(v, lam, n) == pytest.approx(0.5, rel=1e-12)
    # (lambda/n)^3 past either end of the float64 range is a ValueError
    for lam_m, n_index in ((1e291, 1.0), (6.37e-7, 1e150)):
        with pytest.raises(ValueError, match="out of float64 range"):
            normalized_mode_volume(v, lam_m, n_index)
    with pytest.raises(ValueError, match="finite"):
        normalized_mode_volume(v, math.inf, n)


def test_field_grid_validation():
    with pytest.raises(ValueError):
        _uniform_grid(dims=(1, 2, 2))
    with pytest.raises(ValueError):
        _uniform_grid(spacing=0.0)
    with pytest.raises(ValueError):
        _uniform_grid(eps=0.5)  # eps_rel below vacuum
    e = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValueError):
        FieldGrid(e_field=e, eps_rel=np.ones((2, 2, 2)), spacing_m=(1e-9,) * 3)


def test_field_grid_warns_when_maxima_disagree(tmp_path):
    e = np.zeros((2, 2, 2, 3))
    e[0, 0, 0, 1] = 1.0   # |E| max at vacuum point
    e[1, 0, 0, 1] = 0.8   # energy max at high-eps point: 2 * 0.64 = 1.28
    eps = np.ones((2, 2, 2))
    eps[1, 0, 0] = 2.0
    with pytest.warns(UserWarning, match="different grid points") as record:
        grid = FieldGrid(e_field=e, eps_rel=eps, spacing_m=(1e-9,) * 3)
    # the warning names the line that built the grid, also through the loader
    assert record[0].filename == __file__
    path = tmp_path / "grid.fgrid"
    save_field_grid(grid, path)
    with pytest.warns(UserWarning, match="different grid points") as record:
        load_field_grid(path)
    assert record[0].filename == __file__


def test_argmax_tie_breaks_at_lowest_linear_index():
    grid = _uniform_grid()
    assert grid.argmax_energy() == (0, 0, 0)


# ---------------------------------------------------------------------------
# zero-point field, dipole, g0
# ---------------------------------------------------------------------------

def test_zero_point_field_pin():
    lam = C0 / 475e12
    v = 0.5 * (lam / math.sqrt(5.7)) ** 3
    e_zpf = zero_point_field(475e12, 5.7, v)
    assert e_zpf == pytest.approx(5.8e5, rel=0.03)
    # inverse-square-root volume scaling
    assert zero_point_field(475e12, 5.7, 4 * v) == pytest.approx(
        0.5 * e_zpf, rel=1e-12)
    assert zero_point_field(475e12, 5.7, 2 * v) == pytest.approx(
        e_zpf / math.sqrt(2.0), rel=1e-12)


def test_zero_point_field_validation():
    with pytest.raises(ValueError):
        zero_point_field(0.0, 5.7, 1e-20)
    with pytest.raises(ValueError):
        zero_point_field(475e12, 5.7, 0.0)


def test_dipole_pins():
    d = dipole_from_lifetime(16e-9, 475e12)
    assert d == pytest.approx(2.4e-29, rel=0.03)
    assert to_debye(d) == pytest.approx(7.1, rel=0.03)
    # sqrt(gamma1) scaling
    assert dipole_from_lifetime(64e-9, 475e12) == pytest.approx(0.5 * d, rel=1e-12)


def test_zpl_dipole_range():
    for eta_dw, lo, hi in ((0.02, 0.95, 1.05), (0.03, 1.17, 1.29)):
        est = ideal_coupling(16e-9, 475e12, eta_dw, v_mode_normalized=0.5)
        assert lo < to_debye(est.d_zpl_cm) < hi
        assert est.d_zpl_cm == pytest.approx(
            math.sqrt(eta_dw) * est.d_perp_cm, rel=1e-12)


def test_g0_ideal_linearity():
    assert g0_ideal(3e-30, 0.0) == 0.0
    g = g0_ideal(3e-30, 5.8e5)
    assert g0_ideal(6e-30, 5.8e5) == pytest.approx(2 * g, rel=1e-12)


def test_composed_g0_band():
    los = ideal_coupling(16e-9, 475e12, 0.02, v_mode_normalized=0.5)
    his = ideal_coupling(16e-9, 475e12, 0.03, v_mode_normalized=0.5)
    assert los.g0_hz == pytest.approx(2.9e9, rel=0.05)
    assert his.g0_hz == pytest.approx(3.5e9, rel=0.05)
    assert los.g0_hz < his.g0_hz


def test_ideal_coupling_argument_check():
    with pytest.raises(ValueError):
        ideal_coupling(16e-9, 475e12, 0.02)
    with pytest.raises(ValueError):
        ideal_coupling(16e-9, 475e12, 0.02, v_mode_m3=1e-20,
                       v_mode_normalized=0.5)
    # checked before the normalized mode volume divides by the frequency
    with pytest.raises(ValueError, match="lifetime and frequency must be > 0"):
        ideal_coupling(16e-9, 0.0, 0.02, v_mode_normalized=0.5)
    with pytest.raises(ValueError, match=r"eta_dw must lie in \(0, 1\], got 0.0"):
        ideal_coupling(16e-9, 475e12, 0.0, v_mode_normalized=0.5)


def test_effective_g0():
    assert effective_g0(3.0e9, 0.3) == pytest.approx(0.9e9, rel=1e-12)
    assert effective_g0(3.0e9, 1.0) == 3.0e9
    assert effective_g0(3.0e9, 0.0) == 0.0
    with pytest.raises(ValueError):
        effective_g0(3.0e9, 1.2)


# ---------------------------------------------------------------------------
# ensemble weighting
# ---------------------------------------------------------------------------

def test_weighting_uniform_field():
    grid = _uniform_grid(value=0.7, dims=(3, 3, 3))
    f = ensemble_weighting_factor(grid, WeightingConfig(region_m=ALL_SPACE))
    assert f == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    # any threshold below 1 keeps the uniform answer
    f2 = ensemble_weighting_factor(
        grid, WeightingConfig(threshold_fraction=0.9, region_m=ALL_SPACE))
    assert f2 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_weighting_two_point_hand_case():
    # |f| in {1, 0.5}, threshold 0: p = (2/3, 1/3) and
    # F = sqrt((2/3 * 1 + 1/3 * 1/4) / 3) = 1/2
    e = np.zeros((2, 2, 2, 3))
    e[0, 0, 0, 1] = 1.0
    e[0, 0, 1, 1] = 0.5
    grid = FieldGrid(e_field=e, eps_rel=np.ones((2, 2, 2)),
                     spacing_m=(1e-9,) * 3)
    f = ensemble_weighting_factor(grid, WeightingConfig(region_m=ALL_SPACE))
    assert f == pytest.approx(0.5, rel=1e-12)


def test_weighting_threshold_monotone_on_random_grids():
    rng = np.random.default_rng(23)
    thresholds = (0.0, 0.2, 0.4, 0.6, 0.8)
    for _ in range(20):
        dims = tuple(rng.integers(2, 5, size=3))
        e = rng.uniform(-1.0, 1.0, size=dims + (3,))
        grid = FieldGrid(e_field=e, eps_rel=np.ones(dims), spacing_m=(1e-9,) * 3)
        fs = [ensemble_weighting_factor(
            grid, WeightingConfig(threshold_fraction=th, region_m=ALL_SPACE))
            for th in thresholds]
        assert all(0.0 < f <= 1.0 / math.sqrt(3.0) + 1e-12 for f in fs)
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))


def test_weighting_threshold_excludes_all():
    # single hot point: every other point has |E| = 0, and the hot point
    # itself always stays above any threshold < 1, so exclusion needs a
    # sub-region that misses it
    grid = synthetic_field_grid(dims=(21, 9, 9))
    far_corner = ((5.5e-7, 6.0e-7), (-1.8e-7, 1.8e-7), (-1.2e-7, 1.2e-7))
    cfg = WeightingConfig(threshold_fraction=0.0, region_m=far_corner)
    f_corner = ensemble_weighting_factor(grid, cfg)
    assert 0.0 < f_corner <= 1.0 / math.sqrt(3.0) + 1e-12


def test_weighting_zero_field_region_raises():
    e = np.zeros((3, 3, 3, 3))
    e[0, 0, 0, 1] = 1.0
    grid = FieldGrid(e_field=e, eps_rel=np.ones((3, 3, 3)),
                     spacing_m=(1e-9,) * 3)
    # region that only contains zero-field points
    cfg = WeightingConfig(region_m=((1.5e-9, 2.5e-9), (-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        ensemble_weighting_factor(grid, cfg)


def test_weighting_region_must_intersect():
    grid = _uniform_grid(dims=(3, 3, 3))
    cfg = WeightingConfig(region_m=((1.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        ensemble_weighting_factor(grid, cfg)


def test_weighting_config_validation():
    with pytest.raises(ValueError):
        WeightingConfig(threshold_fraction=1.0)
    with pytest.raises(ValueError):
        WeightingConfig(threshold_fraction=-0.1)
    with pytest.raises(ValueError):
        WeightingConfig(region_m=((1.0, -1.0), (-1.0, 1.0), (-1.0, 1.0)))


def test_default_region_matches_cavity_center_box():
    assert DEFAULT_REGION_M == ((-400e-9, 400e-9), (-150e-9, 150e-9),
                                (-100e-9, 100e-9))


def test_grid_refinement_convergence():
    coarse = synthetic_field_grid(dims=(41, 21, 17), uniform_eps=True)
    fine = synthetic_field_grid(dims=(81, 41, 33), uniform_eps=True)
    v_c, v_f = mode_volume(coarse), mode_volume(fine)
    assert abs(v_f - v_c) / v_f < 0.01
    cfg = WeightingConfig(threshold_fraction=0.2)
    f_c = ensemble_weighting_factor(coarse, cfg)
    f_f = ensemble_weighting_factor(fine, cfg)
    assert abs(f_f - f_c) / f_f < 0.01


def test_synthetic_grid_weighting_is_in_reference_ballpark():
    # the published-style threshold model lands near 0.3 at threshold 0.2;
    # this depends on the exact field map so only the ballpark is checked
    grid = synthetic_field_grid()
    f = ensemble_weighting_factor(grid, WeightingConfig(threshold_fraction=0.2))
    assert 0.15 < f < 0.5


# ---------------------------------------------------------------------------
# field-map file format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("encoding", ["f64", "csv"])
def test_field_grid_file_round_trip(tmp_path, encoding):
    grid = synthetic_field_grid(dims=(9, 5, 5))
    path = tmp_path / f"grid_{encoding}.fgrid"
    save_field_grid(grid, path, encoding=encoding)
    back = load_field_grid(path)
    assert np.array_equal(back.e_field, grid.e_field)
    assert np.array_equal(back.eps_rel, grid.eps_rel)
    assert back.spacing_m == grid.spacing_m
    assert back.origin_m == grid.origin_m


def test_field_grid_loader_validates_counts(tmp_path):
    grid = synthetic_field_grid(dims=(5, 3, 3))
    path = tmp_path / "grid.fgrid"
    save_field_grid(grid, path, encoding="f64")
    raw = path.read_bytes()
    bad = tmp_path / "bad.fgrid"
    for body_error in (raw[:-16], raw[:-1], raw + b"\0"):
        bad.write_bytes(body_error)
        with pytest.raises(ValueError, match="expected exactly"):
            load_field_grid(bad)


def test_field_grid_loader_reports_bad_csv_cell(tmp_path):
    grid = synthetic_field_grid(dims=(3, 2, 2))
    path = tmp_path / "grid.fgrid"
    save_field_grid(grid, path, encoding="csv")
    lines = path.read_text().splitlines()
    lines[3] = "0.1,nope,0.3,1.0"
    bad = tmp_path / "bad.fgrid"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4, column 2"):
        load_field_grid(bad)


def test_field_grid_loader_requires_header(tmp_path):
    path = tmp_path / "x.fgrid"
    path.write_bytes(b"not json\n")
    with pytest.raises(ValueError, match="line 1"):
        load_field_grid(path)


# ---------------------------------------------------------------------------
# derived arrays, averaging box and loader: exact equivalence and allocation
# ---------------------------------------------------------------------------

def _weighting_by_masks(grid, cfg):
    """Reference F: the box as boolean masks per axis, cut out with np.ix_."""
    masks = [(ax >= lo) & (ax <= hi) for ax, (lo, hi) in zip(grid.axes(), cfg.region_m)]
    if not all(m.any() for m in masks):
        raise ValueError("averaging region does not intersect the grid")
    e2 = np.sum(grid.e_field ** 2, axis=-1)
    sub_e2 = e2[np.ix_(*masks)].reshape(-1)
    sub_energy = (grid.eps_rel * e2)[np.ix_(*masks)].reshape(-1)
    e_max = math.sqrt(float(sub_e2[int(np.argmax(sub_energy))]))
    e_mag = np.sqrt(sub_e2)
    w = np.maximum(e_mag - cfg.threshold_fraction * e_max, 0.0) / e_max
    p = w / float(np.sum(w))
    return float(math.sqrt(float(np.sum(p * (e_mag / e_max) ** 2)) / 3.0))


def _random_grid(seed, dims=(13, 9, 7)):
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():   # independent maxima of eps*|E|^2 and |E|
        warnings.simplefilter("ignore")
        return FieldGrid(e_field=rng.normal(size=dims + (3,)),
                         eps_rel=rng.uniform(1.0, 6.0, size=dims),
                         spacing_m=(3e-9, 2e-9, 5e-9), origin_m=(-2e-8, -8e-9, -1.5e-8))


def _boxes(axes):
    """Regions with every bound on a sample, every bound between samples,
    and one sample thick on every axis."""
    on = tuple((ax[2], ax[-3]) for ax in axes)
    between = tuple((0.5 * (ax[1] + ax[2]), 0.5 * (ax[-3] + ax[-2])) for ax in axes)
    thin = tuple((ax[4] - 0.1 * (ax[1] - ax[0]), ax[4] + 0.1 * (ax[1] - ax[0]))
                 for ax in axes)
    return {"on-samples": on, "between-samples": between, "one-sample-thick": thin}


@pytest.mark.parametrize("box", ["on-samples", "between-samples", "one-sample-thick"])
def test_weighting_box_equals_mask_reference(box):
    for seed in range(5):
        grid = _random_grid(seed)
        region = _boxes(grid.axes())[box]
        for th in (0.0, 0.3, 0.6):
            cfg = WeightingConfig(threshold_fraction=th, region_m=region)
            assert ensemble_weighting_factor(grid, cfg) == _weighting_by_masks(grid, cfg)


def test_weighting_box_missing_the_grid_raises_like_the_reference():
    grid = _random_grid(0)
    ax = grid.axes()
    # between two samples on x: no sample inside, although the box is within the grid
    gap = ((ax[0][3] + 1e-12, ax[0][4] - 1e-12),) + DEFAULT_REGION_M[1:]
    for region in (gap, ((1.0, 2.0),) + DEFAULT_REGION_M[1:]):
        cfg = WeightingConfig(region_m=region)
        for fn in (ensemble_weighting_factor, _weighting_by_masks):
            with pytest.raises(ValueError, match="does not intersect the grid"):
                fn(grid, cfg)


def test_stored_derived_arrays_equal_recomputation_and_are_read_only(tmp_path):
    path = tmp_path / "grid.fgrid"
    save_field_grid(_random_grid(3), path)
    # in memory (contiguous field) and loaded (field is a strided view)
    for grid in (_random_grid(3), load_field_grid(path)):
        e2 = np.sum(grid.e_field ** 2, axis=-1)
        assert np.array_equal(grid.e_mag2, e2)
        assert np.array_equal(grid.energy_density, grid.eps_rel * e2)
        for arr in (grid.e_mag2, grid.energy_density, grid.e_field, grid.eps_rel):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0


#: 200 points a block cuts a grid of 13 x-planes of 9*7 points (the dims of
#: _random_grid) into blocks of 3 planes and a ragged last block of 1
SMALL_BLOCK = 200
LAST_PLANE = 12


def test_blocked_derived_arrays_equal_whole_grid_arithmetic(tmp_path, monkeypatch):
    monkeypatch.setattr(coupling, "_BLOCK_POINTS", SMALL_BLOCK)
    path = tmp_path / "grid.fgrid"
    save_field_grid(_random_grid(5), path)
    with warnings.catch_warnings():   # independent maxima of eps*|E|^2 and |E|
        warnings.simplefilter("ignore")
        loaded = load_field_grid(path)
    # in memory (contiguous field) and loaded (field is a strided view)
    for grid in (_random_grid(5), loaded):
        e2 = np.sum(grid.e_field ** 2, axis=-1)
        assert grid.e_mag2.tobytes() == e2.tobytes()
        assert grid.energy_density.tobytes() == (grid.eps_rel * e2).tobytes()


FINITE = "field and permittivity must be finite"
EPS_BELOW_1 = "relative permittivity must be >= 1 everywhere"


def _overflow(name, index):
    return f"{name} overflows float64 at grid index {index}; rescale the field"


# (column, grid index, value) plants: columns 0-2 are the field, 3 is eps
@pytest.mark.parametrize("plants, message", [
    ([(1, (12, 4, 3), math.nan)], FINITE),
    ([(0, (12, 4, 3), math.inf)], FINITE),
    ([(2, (12, 4, 3), -math.inf)], FINITE),
    ([(1, (12, 4, 3), 1e160)], _overflow("|E|^2", (12, 4, 3))),
    ([(3, (12, 4, 3), math.nan)], FINITE),
    ([(3, (12, 4, 3), math.inf)], FINITE),
    ([(3, (12, 4, 3), -math.inf)], FINITE),
    ([(3, (12, 4, 3), 0.5)], EPS_BELOW_1),
    # precedence: finite, then eps >= 1, then overflow at the first index
    ([(3, (12, 1, 1), 0.5), (1, (12, 6, 2), math.nan)], FINITE),
    ([(3, (0, 1, 1), 0.5), (1, (12, 6, 2), math.inf)], FINITE),
    ([(1, (12, 1, 1), 1e160), (3, (12, 6, 2), 0.5)], EPS_BELOW_1),
    ([(1, (12, 6, 2), 1e160), (0, (12, 1, 1), 1e170)], _overflow("|E|^2", (12, 1, 1))),
    ([(1, (12, 6, 2), 1e154), (3, (12, 6, 2), 1e10)], _overflow("eps*|E|^2", (12, 6, 2))),
], ids=["e-nan", "e-inf", "e-neginf", "e-overflow", "eps-nan", "eps-inf", "eps-neginf",
        "eps-half", "nan-before-eps", "inf-before-earlier-eps", "eps-before-overflow",
        "first-overflow", "energy-overflow"])
def test_bad_value_in_the_last_block_raises_the_whole_grid_message(
        plants, message, tmp_path, monkeypatch):
    monkeypatch.setattr(coupling, "_BLOCK_POINTS", SMALL_BLOCK)
    rng = np.random.default_rng(7)
    dims = (LAST_PLANE + 1, 9, 7)
    data = np.concatenate([rng.normal(size=dims + (3,)),
                           rng.uniform(1.0, 6.0, size=dims + (1,))], axis=-1)
    path = tmp_path / "grid.fgrid"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        save_field_grid(FieldGrid(e_field=data[..., :3], eps_rel=data[..., 3],
                                  spacing_m=(1e-9,) * 3), path)
    header_len = len(path.read_bytes().split(b"\n", 1)[0]) + 1
    body = np.memmap(path, dtype="<f8", mode="r+", offset=header_len, shape=dims + (4,))
    for column, index, value in plants:
        data[index + (column,)] = body[index + (column,)] = value
    body.flush()
    del body
    for build in (lambda: FieldGrid(e_field=data[..., :3], eps_rel=data[..., 3],
                                    spacing_m=(1e-9,) * 3),
                  lambda: load_field_grid(path)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_grid_keeps_no_writable_alias_of_the_callers_arrays():
    # views of one caller-owned array: the caller's array stays writable,
    # and writing to it leaves the grid, its derived arrays included, as built
    data = np.ones((2, 2, 2, 4))
    grid = FieldGrid(e_field=data[..., :3], eps_rel=data[..., 3],
                     spacing_m=(1e-9,) * 3)
    assert data.flags.writeable
    data[0, 0, 0, :3] = 5.0
    data[1, 1, 1, 3] = 2.0
    assert np.array_equal(grid.e_field, np.ones((2, 2, 2, 3)))
    assert np.array_equal(grid.eps_rel, np.ones((2, 2, 2)))
    assert np.array_equal(grid.e_mag2, np.full((2, 2, 2), 3.0))
    assert np.array_equal(grid.energy_density, np.full((2, 2, 2), 3.0))
    # a read-only array that owns its memory is taken as it is
    e = np.ones((2, 2, 2, 3))
    e.flags.writeable = False
    assert FieldGrid(e_field=e, eps_rel=np.ones((2, 2, 2)),
                     spacing_m=(1e-9,) * 3).e_field is e


def _peak_bytes(fn):
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_map_calls_stay_within_allocation_bounds(tmp_path):
    # deterministic guard, no timing: the loader reads the body once into
    # the grid's own array and derives |E|^2 and eps*|E|^2 block by block
    # (1.5x the file in all), mode_volume reads the stored
    # eps*|E|^2, and the weighting holds two box-sized arrays (the box is
    # about half the grid here).  The one-block grid is small enough that
    # numpy elides no temporary of a whole-grid expression (below 256 KB
    # an array), so a whole-grid |E|^2 would show there; the second grid
    # spans two blocks, the last one ragged
    cfg = WeightingConfig(threshold_fraction=0.3)
    for dims, n_blocks in (((65, 23, 21), 1), ((129, 23, 21), 2)):
        path = tmp_path / "grid.fgrid"
        save_field_grid(synthetic_field_grid(dims=dims), path)
        file_bytes = path.stat().st_size
        assert 0.9e6 * n_blocks < file_bytes < 1.1e6 * n_blocks
        assert -(-dims[0] // (coupling._BLOCK_POINTS // (dims[1] * dims[2]))) == n_blocks
        grid = load_field_grid(path)
        mode_volume(grid)   # warm any lazy state before measuring
        ensemble_weighting_factor(grid, cfg)
        assert _peak_bytes(lambda: load_field_grid(path)) < 1.6 * file_bytes
        assert _peak_bytes(lambda: mode_volume(grid)) < 0.01 * file_bytes
        assert _peak_bytes(lambda: ensemble_weighting_factor(grid, cfg)) < 0.35 * file_bytes
