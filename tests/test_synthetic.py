import hashlib

import numpy as np
import pytest

from molre.rng import RngStream
from molre.synthetic import (
    AIR_HU,
    BAND_RANGES,
    SKULL_HU,
    SynthConfig,
    SyntheticDataset,
    TISSUE_HU,
    build_volume,
    class_archetype,
    class_prevalences,
    sample_label_matrix,
    synth_sample,
)
from molre.volumes import DataError


CFG = SynthConfig()


def test_prevalences_are_long_tailed():
    p = class_prevalences(CFG)
    assert p.shape == (12,)
    assert abs(p[0] - 0.4) < 1e-12
    assert np.allclose(p[1:] / p[:-1], 0.72)
    assert p[-1] < 0.04  # rarest class well under the common ones


def test_archetypes_cover_family_band_grid():
    got = {class_archetype(c) for c in range(12)}
    assert got == {(f, b) for f in range(4) for b in range(3)}
    assert class_archetype(0) == (0, 0)
    assert class_archetype(5) == (1, 1)
    assert class_archetype(11) == (3, 2)


def test_band_ranges_ordered_and_disjoint():
    for lo, hi in BAND_RANGES:
        assert 0.0 < lo < hi < 1.0
    for (l0, h0), (l1, h1) in zip(BAND_RANGES, BAND_RANGES[1:]):
        assert h0 < l1


def test_sample_deterministic_and_index_sensitive():
    a = synth_sample(3, CFG, seed=7)
    b = synth_sample(3, CFG, seed=7)
    c = synth_sample(4, CFG, seed=7)
    d = synth_sample(3, CFG, seed=8)
    assert np.array_equal(a.voxels, b.voxels)
    assert a.sample_id == "synth-7-00003"
    assert not np.array_equal(a.voxels, c.voxels)
    assert not np.array_equal(a.voxels, d.voxels)


def test_volume_basic_anatomy():
    s = synth_sample(0, CFG, seed=7)
    v = s.voxels
    assert v.shape == CFG.shape
    assert v[0, 0, 0] == AIR_HU                      # corners are air
    assert (v == SKULL_HU).any()                     # skull shell present
    zc, yc, xc = [(n - 1) // 2 for n in CFG.shape]
    assert abs(v[zc, yc - 10, xc] - TISSUE_HU) < 25  # parenchyma near 30 HU
    # disk quantization already applied
    assert np.array_equal(v, v.astype(np.float32).astype(np.float64))


def test_labels_match_prevalences_statistically():
    y = sample_label_matrix(4000, CFG, seed=7)
    p = class_prevalences(CFG)
    assert np.abs(y.mean(axis=0) - p).max() < 0.04


def test_label_matrix_matches_rendered_samples():
    y = sample_label_matrix(10, CFG, seed=7)
    for i in range(10):
        assert np.array_equal(y[i], synth_sample(i, CFG, seed=7).labels)


def _mean_abs_diff_in_band(c, seed0=100, n=6):
    """Mean |lesion - clean| per band for class-c positives."""
    family, band = class_archetype(c)
    diffs = np.zeros(len(BAND_RANGES))
    s, _, _ = CFG.shape
    labels = np.zeros(12, dtype=np.uint8)
    labels[c] = 1
    clean = np.zeros(12, dtype=np.uint8)
    for k in range(n):
        pos = build_volume(RngStream(seed0).child("pos", k), labels, CFG)
        neg = build_volume(RngStream(seed0).child("pos", k), clean, CFG)
        d = np.abs(pos - neg)
        for b, (lo, hi) in enumerate(BAND_RANGES):
            sl = slice(int(lo * (s - 1)), int(hi * (s - 1)) + 1)
            diffs[b] += d[sl].mean()
    return diffs / n


@pytest.mark.parametrize("c", range(12))
def test_lesions_render_inside_their_band(c):
    # the same stream with labels on/off isolates the lesion voxels; the
    # archetype's own band must carry (almost all of) the difference mass
    family, band = class_archetype(c)
    diffs = _mean_abs_diff_in_band(c)
    assert diffs[band] > 0, f"class {c} rendered nothing"
    assert diffs[band] >= 0.9 * diffs.sum(), (
        f"class {c}: band {band} carries only {diffs[band] / diffs.sum():.2f}"
    )


def test_family_hu_signs():
    # hyperdense families push HU up, the hypodense wedge pulls it down
    s, _, _ = CFG.shape
    for c, family, sign in ((0, 0, +1), (1, 1, -1), (2, 2, +1)):
        labels = np.zeros(12, dtype=np.uint8); labels[c] = 1
        pos = build_volume(RngStream(55).child(c), labels, CFG)
        neg = build_volume(RngStream(55).child(c), np.zeros(12, dtype=np.uint8), CFG)
        delta = (pos - neg)[np.abs(pos - neg) > 1e-9]
        assert delta.size > 0
        assert np.sign(np.median(delta)) == sign, f"class {c}"


def test_synthetic_dataset_lazy_view():
    ds = SyntheticDataset(20, CFG, seed=7)
    assert len(ds) == 20
    assert ds.labels.shape == (20, 12)
    assert np.array_equal(ds.labels, sample_label_matrix(20, CFG, seed=7))
    s = ds.sample(5)
    assert s.sample_id == ds.ids[5]


def test_synthetic_dataset_index_subset():
    ds = SyntheticDataset(20, CFG, seed=7, indices=[4, 9])
    assert len(ds) == 2
    assert np.array_equal(ds.labels[1], synth_sample(9, CFG, seed=7).labels)
    assert np.array_equal(ds.sample(0).voxels, synth_sample(4, CFG, seed=7).voxels)


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(num_classes=0)
    with pytest.raises(DataError):
        SynthConfig(shape=(4, 64, 64))


# SHA-256 of synth_sample(i, SynthConfig(), seed=7).voxels: these samples hold
# every (family, band) class and both distractors among them
RENDER_SHA256 = {
    0: "14492f1a4bb43b316ac85a589f015f524b33eb464390cbae2236a892e19301d6",
    1: "e96b4a74749d1f5e6b29e64f9ea3b2277418171339f3d543f51eea8291718f1e",
    2: "75767b8032a157f0757149a0f7d646455c42be93e9b0830e9088c2556de8b13a",
    4: "219446aff2fbd6a7a193671bdbd16dfccbcaefb51e10b45e9e1713761ac7599a",
    7: "fc228397bf7163afc77bde3395fec88d06a9377a2f6754caf20a4fa8c40b23c4",
    8: "6ffeded85c6b72cbdc32a953aa87ebc190ad565e13f60d8a34068f6f6b171400",
    10: "342c2df939cfac6199ce9f11604dea1851a489ac4aa23d56c2efcaefe908b805",
    12: "434bc84170c5cba5a7334446715dfd8584c214e946a378be62295597bc01722e",
    24: "817b6cb444ff50af20747d3dd546980ec279fe2cf38199ef75d19a98fca30e05",
    70: "4b9a503bbfe26b99aef43c4c422cc98217d65b5f42450dc89638e197ef1e0e29",
    112: "732b512e735c35ce791733406a0aa94bb3f965d0174200929dad99e491c4426d",
}


def test_pinned_samples_cover_every_class_and_both_distractors(monkeypatch):
    distractors = []
    real = RngStream.uniform

    def uniform(self, *args, **kwargs):
        value = real(self, *args, **kwargs)
        if not args and not kwargs:  # only the two distractor draws take no bounds
            distractors.append(value < 0.35)
        return value

    monkeypatch.setattr(RngStream, "uniform", uniform)
    hit = [False, False]
    classes = set()
    for i in RENDER_SHA256:
        del distractors[:]
        classes |= set(np.flatnonzero(synth_sample(i, CFG, seed=7).labels).tolist())
        assert len(distractors) == 2
        hit = [a or b for a, b in zip(hit, distractors)]
    assert classes == set(range(12)) and hit == [True, True]


@pytest.mark.parametrize("i", sorted(RENDER_SHA256))
def test_rendered_voxels_keep_their_bytes(i):
    voxels = synth_sample(i, CFG, seed=7).voxels
    assert hashlib.sha256(voxels.tobytes()).hexdigest() == RENDER_SHA256[i]
