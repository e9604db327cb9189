import numpy as np
import pytest

from molre.preprocess import (
    AIR_HU,
    AugmentConfig,
    DEFAULT_SPACING,
    DEFAULT_WINDOWS,
    WindowSpec,
    augment,
    hu_window,
    resample,
)
from molre.rng import RngStream
from molre.volumes import DataError, VolumeSample


def _sample(voxels, spacing=(1.0, 1.0, 4.0)):
    v = np.asarray(voxels, dtype=np.float64)
    return VolumeSample("s0", v, spacing, np.zeros(2, dtype=np.uint8), 0)


# -- windowing ---------------------------------------------------------------


def test_window_endpoints_and_midpoint():
    v = np.array([[[0.0, 40.0, 80.0]]])
    out = hu_window(v, (WindowSpec(0.0, 80.0),))
    assert np.array_equal(out[0, 0, 0], [0.0, 0.5, 1.0])


def test_window_clips_outside():
    v = np.array([[[-500.0, 3000.0]]])
    out = hu_window(v, (WindowSpec(-20.0, 180.0),))
    assert np.array_equal(out[0, 0, 0], [0.0, 1.0])


def test_window_default_three_channels():
    v = np.full((2, 3, 3), 30.0)
    out = hu_window(v)
    assert out.shape == (3, 2, 3, 3)
    # 30 HU inside each default window
    for m, w in enumerate(DEFAULT_WINDOWS):
        assert np.allclose(out[m], (30.0 - w.lo) / (w.hi - w.lo))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_window_is_bitwise_the_out_of_place_expression():
    # HU values across and beyond every default window, at a study's shape
    v = np.random.default_rng(0).uniform(-1500.0, 2500.0, (32, 64, 64))
    out = hu_window(v)
    for m, w in enumerate(DEFAULT_WINDOWS):
        assert np.array_equal(out[m], (np.clip(v, w.lo, w.hi) - w.lo) / (w.hi - w.lo))


def test_window_spec_validation():
    with pytest.raises(DataError):
        WindowSpec(10.0, 10.0)


# -- resampling ----------------------------------------------------------------


def _affine_volume(shape, spacing, coef):
    # value = a + bx*x_mm + by*y_mm + bz*z_mm on the physical grid
    a, bx, by, bz = coef
    s, h, w = shape
    zz = np.arange(s)[:, None, None] * spacing[2]
    yy = np.arange(h)[None, :, None] * spacing[1]
    xx = np.arange(w)[None, None, :] * spacing[0]
    return a + bx * xx + by * yy + bz * zz


def test_resample_reproduces_affine_field():
    # trilinear interpolation is exact on fields linear in each coordinate
    coef = (7.0, 0.5, -1.25, 2.0)
    src_sp = (0.7, 1.3, 2.0)
    v = _affine_volume((9, 12, 15), src_sp, coef)
    out = resample(_sample(v, src_sp), DEFAULT_SPACING)
    want = _affine_volume(out.voxels.shape, DEFAULT_SPACING, coef)
    assert np.abs(out.voxels - want).max() < 1e-9
    assert out.spacing == DEFAULT_SPACING


def test_resample_upsampling_affine():
    coef = (0.0, 1.0, 2.0, 3.0)
    v = _affine_volume((5, 6, 7), (2.0, 2.0, 8.0), coef)
    out = resample(_sample(v, (2.0, 2.0, 8.0)), (1.0, 1.0, 4.0))
    want = _affine_volume(out.voxels.shape, (1.0, 1.0, 4.0), coef)
    assert np.abs(out.voxels - want).max() < 1e-9


def test_resample_target_shape_never_exceeds_extent():
    # 9 slices x 2mm = 16mm extent; at 4mm that is 5 slices (0..16 step 4)
    v = np.zeros((9, 4, 4))
    out = resample(_sample(v, (1.0, 1.0, 2.0)), (1.0, 1.0, 4.0))
    assert out.voxels.shape == (5, 4, 4)


def test_resample_equal_spacing_is_copy():
    v = np.random.default_rng(0).normal(size=(4, 5, 6))
    s = _sample(v, DEFAULT_SPACING)
    out = resample(s, DEFAULT_SPACING)
    assert np.array_equal(out.voxels, v)
    assert out.voxels is not s.voxels


def test_resample_preserves_labels_and_id():
    s = VolumeSample("abc", np.zeros((8, 8, 8)), (1, 1, 1),
                     np.array([1, 0, 1], dtype=np.uint8), 5)
    out = resample(s, (2.0, 2.0, 2.0))
    assert out.sample_id == "abc" and out.stream_id == 5
    assert np.array_equal(out.labels, s.labels)


def test_resample_rejects_bad_target():
    with pytest.raises(DataError):
        resample(_sample(np.zeros((8, 8, 8))), (0.0, 1.0, 1.0))


# -- augmentation -------------------------------------------------------------


def test_identity_config_is_bitwise_identity():
    rng = np.random.default_rng(1)
    v = rng.normal(30.0, 100.0, (6, 10, 10))
    s = _sample(v)
    out = augment(s, AugmentConfig.identity(), RngStream(3).child("augment", 0, "s0"))
    assert np.array_equal(out.voxels, v)


def test_identity_holds_for_any_stream():
    v = np.random.default_rng(2).normal(size=(4, 6, 6))
    for seed in range(5):
        out = augment(_sample(v), AugmentConfig.identity(), RngStream(seed))
        assert np.array_equal(out.voxels, v)


def test_double_mirror_is_identity():
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.0, 1.0),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=1.0,
    )
    v = np.random.default_rng(3).normal(size=(4, 5, 6))
    once = augment(_sample(v), cfg, RngStream(0))
    twice = augment(_sample(once.voxels), cfg, RngStream(1))
    assert not np.array_equal(once.voxels, v)
    assert np.array_equal(twice.voxels, v)


def test_pure_rotation_matches_linear_field_oracle():
    # a field linear in physical coords stays exact under trilinear pullback
    sp = (1.0, 1.0, 1.0)
    shape = (17, 17, 17)
    coef = np.array([0.0, 1.0, 0.0, 0.0])  # value = x_mm
    v = _affine_volume(shape, sp, coef)
    theta = 0.1
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(theta, theta), scale=(1.0, 1.0),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v, sp), cfg, RngStream(0)).voxels
    # interior voxel (8,8,12): rotating content by theta about each axis
    center = (np.array(shape) - 1.0) / 2.0
    from molre.preprocess import _rotation_matrix
    rot = _rotation_matrix(np.array([theta, theta, theta]))
    p = (np.array([8.0, 8.0, 12.0]) - center)  # (z, y, x) physical
    src = p @ rot + center
    want = src[2]  # field value is the x coordinate
    assert abs(out[8, 8, 12] - want) < 1e-9


def test_pure_scale_matches_linear_field_oracle():
    sp = (1.0, 1.0, 1.0)
    shape = (9, 9, 9)
    v = _affine_volume(shape, sp, (5.0, 2.0, 0.0, 0.0))  # 5 + 2 x_mm
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.25, 1.25),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v, sp), cfg, RngStream(0)).voxels
    # content scaled up 1.25x about the center: voxel at x offset dx reads
    # the source at dx/1.25
    center = 4.0
    dx = 7.0 - center
    want = 5.0 + 2.0 * (dx / 1.25 + center)
    assert abs(out[4, 4, 7] - want) < 1e-9


def test_out_of_field_fills_with_air():
    v = np.full((9, 9, 9), 500.0)
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(0.5, 0.5),  # shrink pulls in border
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v, (1.0, 1.0, 1.0)), cfg, RngStream(0)).voxels
    assert out[0, 0, 0] == AIR_HU
    assert out[4, 4, 4] == 500.0


def test_elastic_rotation_and_scaling_compose_into_one_map():
    # reference: the same draws from the same stream; the smoothed field
    # displaces the index grid, the displaced points go back through the
    # inverse scale-then-rotate, and the volume is interpolated once
    from molre.preprocess import _rotation_matrix
    from scipy.ndimage import gaussian_filter, map_coordinates
    v = np.random.default_rng(9).uniform(-100.0, 300.0, (10, 14, 12))
    sp = (0.8, 0.9, 2.5)
    cfg = AugmentConfig(
        elastic_alpha=(50.0, 200.0), elastic_sigma=(10.0, 13.0),
        rotation_rad=(-0.1, 0.1), scale=(0.85, 1.15),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v, sp), cfg, RngStream(4).child("augment", 1, "s0")).voxels

    rng = RngStream(4).child("augment", 1, "s0")
    alpha = rng.uniform(50.0, 200.0)
    sigma = rng.uniform(10.0, 13.0)
    grid = np.stack(np.meshgrid(*map(np.arange, v.shape), indexing="ij"), axis=-1).astype(float)
    for axis in range(3):
        grid[..., axis] += gaussian_filter(rng.uniform(-1.0, 1.0, size=v.shape), sigma) * alpha
    rot = _rotation_matrix(rng.uniform(-0.1, 0.1, size=3))
    scales = rng.uniform(0.85, 1.15, size=3)
    center = (np.array(v.shape) - 1.0) / 2.0
    spacing_zyx = np.array(sp[::-1])
    src = (grid - center) * spacing_zyx / scales @ rot / spacing_zyx + center
    want = map_coordinates(v, np.moveaxis(src, -1, 0), order=1, mode="constant", cval=AIR_HU)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("cfg, calls", [
    (AugmentConfig(), 1),
    (AugmentConfig.identity(), 0),
])
def test_augment_interpolates_at_most_once(monkeypatch, cfg, calls):
    import molre.preprocess
    seen = []
    real = molre.preprocess.map_coordinates

    def counting(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(molre.preprocess, "map_coordinates", counting)
    v = np.random.default_rng(10).normal(30.0, 100.0, (8, 12, 12))
    augment(_sample(v), cfg, RngStream(5).child("augment", 1, "s0"))
    assert len(seen) == calls


def test_brightness_is_exact_gain():
    v = np.random.default_rng(4).normal(size=(4, 4, 4))
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.0, 1.0),
        brightness=(1.01, 1.01), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v), cfg, RngStream(0)).voxels
    assert np.array_equal(out, v * 1.01)


def test_noise_statistics():
    v = np.zeros((20, 20, 20))
    cfg = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.0, 1.0),
        brightness=(1.0, 1.0), noise_var=(0.03, 0.03), mirror_p=0.0,
    )
    out = augment(_sample(v), cfg, RngStream(5)).voxels
    assert abs(out.std() - np.sqrt(0.03)) < 0.01
    assert abs(out.mean()) < 0.01


def test_elastic_deforms_but_stays_in_range():
    rng = np.random.default_rng(6)
    v = rng.uniform(-100.0, 300.0, (12, 16, 16))
    cfg = AugmentConfig(
        elastic_alpha=(200.0, 200.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.0, 1.0),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=0.0,
    )
    out = augment(_sample(v), cfg, RngStream(7)).voxels
    assert not np.array_equal(out, v)
    # linear interpolation cannot invent values outside [min(input, air), max]
    assert out.min() >= min(v.min(), AIR_HU) - 1e-9
    assert out.max() <= v.max() + 1e-9


def test_augment_deterministic_per_stream():
    v = np.random.default_rng(8).normal(60.0, 40.0, (8, 12, 12))
    cfg = AugmentConfig()
    a = augment(_sample(v), cfg, RngStream(11).child("augment", 2, "s0")).voxels
    b = augment(_sample(v), cfg, RngStream(11).child("augment", 2, "s0")).voxels
    c = augment(_sample(v), cfg, RngStream(11).child("augment", 3, "s0")).voxels
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_config_validation():
    with pytest.raises(DataError):
        AugmentConfig(scale=(1.2, 0.8))
    with pytest.raises(DataError):
        AugmentConfig(mirror_p=1.5)
