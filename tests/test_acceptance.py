"""Acceptance gate: one test per advertised guarantee of the library.

Each test is self-contained, uses an independent oracle (closed-form value,
brute-force reference, or finite differences), and asserts the guarantee at
its stated tolerance. Run with `pytest -v tests/test_acceptance.py` to get
one pass/fail line per guarantee.
"""

import math
import time

import numpy as np
import pytest

from molre.adapters import (
    ExpertBank,
    LoraAdapter,
    MolreLayer,
    Router,
    count_molre_params,
)
from molre.cli import main
from molre.config import RunConfig
from molre.losses import FocalLossConfig, focal_loss
from molre.metrics import aggregate, auc, per_class_auc
from molre.model import SliceModel, build_model
from molre.parallel import fork_rows, one_blas_thread
from molre.pipeline import AttentionPooler, ClassifierHead
from molre.preprocess import (
    DEFAULT_WINDOWS,
    AugmentConfig,
    augment,
    hu_window,
    resample,
)
from molre.rng import RngStream
from molre.sampling import expand_indices, repeat_factors
from molre.synthetic import SynthConfig, SyntheticDataset
from molre.tensor import Tensor, finite_diff_grad
from molre.training import Trainer, predict_probs, trunk_cache
from molre.volumes import VolumeSample


# 1. parameter-count reproduction ---------------------------------------------


def test_c01_param_count_reproduction():
    t0 = time.monotonic()
    expected = {768: 272_134, 1024: 362_246, 1152: 407_302}
    displayed = {768: 0.28, 1024: 0.37, 1152: 0.41}
    for d, want in expected.items():
        got = count_molre_params(d, d, num_experts=6, rank=8, router_hidden=256)
        assert got == want, f"d={d}: {got} != {want}"
        # published tables print the count rounded up to 0.01M
        assert math.ceil(got / 1e6 * 100) / 100 == displayed[d]
    assert main(["count-params"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"count-params took {elapsed:.3f}s"


# 2. sub-0.5% trainable budget -------------------------------------------------


def test_c02_sub_half_percent_budget():
    count = count_molre_params(768, 768, num_experts=6, rank=8, router_hidden=256)
    assert count / 86.6e6 < 0.005


# 3. gradient suite ------------------------------------------------------------


def test_c03_gradient_suite_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for cfg_no in range(20):
        d = int(rng.integers(4, 17))       # adapter input width <= 16
        dm = int(rng.integers(3, 9))       # working feature width
        s = int(rng.integers(1, 5))        # slices per volume <= 4
        c = int(rng.integers(1, 6))        # classes <= 5
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(4, d)))
        dh = int(rng.integers(2, 7))
        b = int(rng.integers(1, 4))

        w0 = Tensor(rng.normal(size=(dm, d)) / np.sqrt(d))
        layer = MolreLayer(w0, ExpertBank(k, d, dm, r), Router(d, k, dh))
        lora = LoraAdapter(d, dm, r)
        pooler = AttentionPooler(dm)
        head = ClassifierHead(dm, c)
        seeds = RngStream(1000 + cfg_no)
        layer.init(seeds.child("mix"))
        lora.init(seeds.child("lora"))
        pooler.init(seeds.child("pool"))
        head.init(seeds.child("head"))
        params = {**layer.parameters(), **lora.parameters(),
                  **pooler.parameters(), **head.parameters()}
        for t in params.values():
            t.data += rng.normal(0, 0.3, t.data.shape)

        z = rng.normal(size=(b * s, d))
        gout = rng.normal(size=(b, c))

        def fwd() -> float:
            f = layer.forward_cached(z)[0] + lora.delta(z)
            h = pooler.forward_cached(f.reshape(b, s, dm))[0]
            return float((gout * head.forward_cached(h)[0]).sum())

        for t in params.values():
            t.zero_grad()
        f, mix_cache = layer.forward_cached(z)
        f = f + lora.delta(z)
        h, pool_cache = pooler.forward_cached(f.reshape(b, s, dm))
        _, head_cache = head.forward_cached(h)
        gh = head.backward(head_cache, gout)
        gf = pooler.backward(pool_cache, gh).reshape(b * s, dm)
        layer.backward(mix_cache, gf)
        lora.delta_backward(gf, z)

        for name, t in params.items():
            def loss(flat, _t=t):
                saved = _t.data.copy()
                _t.data[...] = flat.data.reshape(_t.data.shape)
                val = fwd()
                _t.data[...] = saved
                return val

            num = finite_diff_grad(loss, t.data.ravel().copy()).reshape(t.data.shape)
            rel = np.abs(t.grad - num).max() / max(np.abs(num).max(), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, f"config {cfg_no}, {name}: rel err {rel:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# 4. single-expert collapse to the plain adapter ---------------------------------


def test_c04_single_expert_matches_lora_forward():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        d_in = int(rng.integers(2, 13))
        d_out = int(rng.integers(1, 11))
        r = int(rng.integers(1, min(5, d_in + 1, d_out + 1)))
        alpha = float(rng.uniform(1.0, 32.0))
        n = int(rng.integers(1, 6))

        adapter = LoraAdapter(d_in, d_out, r, alpha)
        adapter.init(RngStream(int(rng.integers(1 << 30))))
        adapter.B.data[...] = rng.normal(size=(d_out, r))
        w0 = Tensor(rng.normal(size=(d_out, d_in)))

        bank = ExpertBank(1, d_in, d_out, r, alpha)
        bank.A.data[:r] = adapter.A.data     # expert 0: rows 0:r of the stacked A
        bank.B.data[:, :r] = adapter.B.data  # ... and columns 0:r of the stacked B
        router = Router(d_in, 1, 4)
        router.W1.data[...] = rng.normal(size=router.W1.shape)
        layer = MolreLayer(w0, bank, router)

        x = rng.normal(size=(n, d_in))
        # the plain adapter in closed form, x W0^T + (alpha/r) (x A^T) B^T
        lora = x @ w0.data.T + (alpha / r) * ((x @ adapter.A.data.T) @ adapter.B.data.T)
        diff = np.abs(layer.forward_cached(x)[0] - lora).max()
        worst = max(worst, diff)
        assert diff <= 1e-12, f"K=1 deviates from the plain adapter by {diff:.2e}"
    print(f"100 instances, worst |diff| {worst:.2e}")


# 5. zero-init transparency ------------------------------------------------------


def test_c05_zero_init_transparency():
    mix = SliceModel(RunConfig(mode="molre"))
    base = SliceModel(RunConfig(mode="baseline-frozen"))
    base.stub = mix.stub
    seeds = RngStream(2)
    mix.init_params(seeds)
    base.init_params(seeds)
    jitter = np.random.default_rng(3)
    q = jitter.normal(size=mix.pooler.q.shape)
    w = jitter.normal(size=mix.head.w.shape)
    for m in (mix, base):
        m.pooler.q.data[...] = q
        m.head.w.data[...] = w

    x = jitter.uniform(0, 1, (2, 3, 4, 32, 32))
    with_mix = mix.forward(x)
    without = base.forward(x)
    assert np.array_equal(with_mix, without)
    assert np.abs(with_mix - without).max() == 0.0


# 6. gate simplex -----------------------------------------------------------------


def test_c06_gate_simplex():
    rng = np.random.default_rng(4)
    rows = 0
    min_gate, worst_sum = np.inf, 0.0
    while rows < 10_000:
        d = int(rng.integers(2, 32))
        k = int(rng.integers(1, 9))
        dh = int(rng.integers(2, 16))
        router = Router(d, k, dh)
        scale = 10.0 ** rng.uniform(-2, 2)  # benign through saturating logits
        for t in router.parameters().values():
            t.data[...] = rng.normal(0, scale, t.data.shape)
        n = int(rng.integers(1, 512))
        gates = router.forward_cached(rng.normal(0, 3, size=(n, d)))[0]
        rows += n
        min_gate = min(min_gate, gates.min())
        worst_sum = max(worst_sum, np.abs(gates.sum(axis=1) - 1.0).max())
    assert min_gate >= 0.0
    assert worst_sum < 1e-9, f"row sum off by {worst_sum:.2e}"
    print(f"{rows} rows, min gate {min_gate:.2e}, worst |sum-1| {worst_sum:.2e}")


# 7. AUC against brute-force pair counting -----------------------------------------


def _brute_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_c07_auc_matches_pair_counting():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
        if y.min() == y.max():
            continue
        scores = rng.normal(size=n)
        if rng.uniform() < 0.5:
            scores = np.round(scores, 1)  # heavy ties
        fast = auc(scores, y)
        assert abs(fast - _brute_auc(scores, y)) <= 1e-12
        checked += 1


# 8. focal-loss reductions -----------------------------------------------------------


def test_c08_focal_loss_reductions():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.02, 0.98, size=(7, 4))
    y = (rng.uniform(size=(7, 4)) < 0.5).astype(np.float64)
    bce = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    plain = focal_loss(p, y, FocalLossConfig(gamma=0.0, class_weights=0.5))
    assert abs(plain - 0.5 * bce) <= 1e-12

    scalar = focal_loss([[0.5]], [[1.0]], FocalLossConfig(gamma=2.0, class_weights=1.0))
    assert abs(scalar - 0.25 * math.log(2.0)) <= 1e-12


# 9. repeat-factor sampling -----------------------------------------------------------


def test_c09_repeat_factor_sampling():
    # frequencies by construction: class 0 at 0.50, class 1 at 0.04, class 2 at 0.01
    t = 0.16
    y = np.zeros((100, 3))
    y[0, [1, 2]] = 1.0
    y[1:4, 1] = 1.0
    y[4:54, 0] = 1.0
    r = repeat_factors(y, t)
    freq = y.mean(axis=0)
    assert freq.tolist() == [0.5, 0.04, 0.01]
    assert np.all(r[4:54] == 1.0)  # f >= t: no oversampling
    assert np.all(r[54:] == 1.0)   # unlabeled rows never repeat
    assert r[0] == np.sqrt(t / freq[2])   # max over the sample's classes
    assert np.all(r[1:4] == np.sqrt(t / freq[1]))

    factors = np.array([1.0, 2.3, 3.7, 1.5])
    root = RngStream(7)
    counts = np.zeros(4)
    draws = 10_000
    for k in range(draws):
        idx = expand_indices(factors, root.child("expand", k))
        counts += np.bincount(idx, minlength=4)
    means = counts / draws
    assert np.abs(means - factors).max() <= 0.05, means


# 10. protocol fidelity -----------------------------------------------------------------


def _mini_protocol_cfg(**over):
    base = dict(
        mode="molre", num_experts=3, rank=2, router_hidden=5, feature_dim=8,
        num_classes=3, volume_shape=(8, 16, 16), batch_size=4,
        min_epochs=20, patience=5, max_epochs=60, seed=0,
    )
    base.update(over)
    return RunConfig(**base)


def _mini_protocol_splits():
    scfg = SynthConfig(num_classes=3, shape=(8, 16, 16))
    tr = SyntheticDataset(20, scfg, 7, indices=range(12))
    va = SyntheticDataset(20, scfg, 7, indices=range(12, 16))
    return tr, va


def test_c10_protocol_fidelity(monkeypatch, tmp_path):
    tr, va = _mini_protocol_splits()

    # constant validation AUC: halts at exactly min_epochs + patience
    with monkeypatch.context() as m:
        m.setattr(Trainer, "validate", lambda self: 0.5)
        result = Trainer(_mini_protocol_cfg(), tr, va).train()
    assert result.stopped_epoch == 25, result.stopped_epoch

    # the reported checkpoint is the best one
    sequence = {1: 0.55, 2: 0.70, 3: 0.60, 4: 0.58, 5: 0.57}
    with monkeypatch.context() as m:
        m.setattr(Trainer, "validate", lambda self: sequence[self.epochs_done + 1])
        trainer = Trainer(_mini_protocol_cfg(min_epochs=1, patience=3), tr, va, run_dir=tmp_path)
        result = trainer.train()
    assert result.best_epoch == 2 and result.best_val_auc == 0.70
    for name, t in trainer.model.parameters().items():
        assert np.array_equal(t.data, trainer.best_params[name]), name
    probe = Trainer(_mini_protocol_cfg(min_epochs=1, patience=3), tr, va)
    probe.load_state(tmp_path / "best.ckpt")
    assert probe.epochs_done == 2  # saved at the moment of improvement
    for name, t in probe.model.parameters().items():
        assert np.array_equal(t.data, trainer.best_params[name]), name

    # checkpoint round-trip resumes bitwise
    cfg = _mini_protocol_cfg(min_epochs=60)
    a = Trainer(cfg, tr, va)
    for _ in range(4):
        a.step_epoch()
    a.save_state(tmp_path / "mid.ckpt")
    for _ in range(3):
        a.step_epoch()
    b = Trainer(cfg, tr, va)
    b.load_state(tmp_path / "mid.ckpt")
    for _ in range(3):
        b.step_epoch()
    for name, t in a.model.parameters().items():
        assert np.array_equal(t.data, b.model.parameters()[name].data), name
    sa, sb = a.optimizer.state_tensors(), b.optimizer.state_tensors()
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name
    assert (a.stopper.best_epoch, a.stopper.best_auc) == (b.stopper.best_epoch, b.stopper.best_auc)


# 11. directional end-to-end ---------------------------------------------------------------


class _Split:
    """Label/id view over a cached feature block; voxels never touched."""

    def __init__(self, labels, ids):
        self.labels = labels
        self.ids = ids

    def __len__(self):
        return len(self.ids)

    def sample(self, i):
        raise AssertionError("cached features should make voxel access unnecessary")


def test_c11_directional_end_to_end():
    t0 = time.monotonic()
    scfg = SynthConfig()  # 12 classes, long-tailed, band-specific archetypes
    n_train, n_val, n_test = 2000, 400, 400
    n = n_train + n_val + n_test
    probe = build_model(RunConfig())  # trunk is mode-independent
    data = SyntheticDataset(n, scfg, 7)
    labels = data.labels.astype(np.float64)
    z = trunk_cache(probe, data)  # the features a feature store of this data holds

    sl_tr = slice(0, n_train)
    sl_va = slice(n_train, n_train + n_val)
    sl_te = slice(n_train + n_val, n)
    ids = [f"synth-7-{i:05d}" for i in range(n)]
    tr = _Split(labels[sl_tr], ids[sl_tr])
    va = _Split(labels[sl_va], ids[sl_va])
    te = _Split(labels[sl_te], ids[sl_te])

    modes, seeds = ("baseline-frozen", "lora", "molre"), range(1, 6)
    runs = [(mode, seed) for mode in modes for seed in seeds]

    def run(i):
        # the runs are independent: one a process on every CPU, each at one
        # BLAS thread so that the processes do not contend for the CPUs
        mode, seed = runs[i]
        with one_blas_thread():
            cfg = RunConfig(mode=mode, seed=seed)
            trainer = Trainer(cfg, tr, va, train_cache=z[sl_tr], val_cache=z[sl_va])
            trainer.train()
            probs = predict_probs(trainer.model, z[sl_te])
        return aggregate(per_class_auc(probs, te.labels))["mean_auc"]

    aucs = fork_rows(run, len(runs), "c11")
    means = {mode: float(np.mean(aucs[k * len(seeds):(k + 1) * len(seeds)]))
             for k, mode in enumerate(modes)}

    elapsed = time.monotonic() - t0
    line = (
        f"mean test AUC over 5 seeds: baseline-frozen {means['baseline-frozen']:.4f}, "
        f"lora {means['lora']:.4f}, molre {means['molre']:.4f} ({elapsed / 60:.1f} min)"
    )
    print(line)
    assert means["molre"] >= means["lora"] >= means["baseline-frozen"], line


# 12. preprocessing exactness -----------------------------------------------------------------


def test_c12_preprocessing_exactness():
    # window endpoints and midpoints, all three channels, exact
    brain, subdural, bone = DEFAULT_WINDOWS
    probes = np.array([[[brain.lo, 40.0, brain.hi],
                        [subdural.lo, 80.0, subdural.hi],
                        [bone.lo, 600.0, bone.hi]]])
    ch = hu_window(probes)
    for m, row in enumerate((0, 1, 2)):
        assert ch[m, 0, row, 0] == 0.0
        assert ch[m, 0, row, 1] == 0.5
        assert ch[m, 0, row, 2] == 1.0
    assert ch[0, 0, 1, 2] == 1.0  # 180 HU saturates the brain window

    # trilinear resampling reproduces an affine field
    src_sp = (0.7, 0.7, 2.5)
    zz, yy, xx = np.meshgrid(
        np.arange(9) * src_sp[2], np.arange(11) * src_sp[1], np.arange(13) * src_sp[0],
        indexing="ij",
    )
    field = 3.0 + 0.25 * zz - 0.5 * yy + 0.125 * xx
    sample = VolumeSample("affine", field, src_sp, np.array([0]))
    out = resample(sample, (1.0, 1.0, 4.0))
    s, h, w = out.voxels.shape
    tz, ty, tx = np.meshgrid(
        np.arange(s) * 4.0, np.arange(h) * 1.0, np.arange(w) * 1.0, indexing="ij"
    )
    want = 3.0 + 0.25 * tz - 0.5 * ty + 0.125 * tx
    assert np.abs(out.voxels - want).max() < 1e-9

    # identity-collapsed augmentation is the exact identity
    vox = np.random.default_rng(8).uniform(-1000, 2000, (6, 12, 12))
    base = VolumeSample("aug", vox, (1.0, 1.0, 4.0), np.array([1]))
    same = augment(base, AugmentConfig.identity(), RngStream(9))
    assert np.array_equal(same.voxels, base.voxels)

    # mirroring twice restores the original bitwise
    mirror_only = AugmentConfig(
        elastic_alpha=(0.0, 0.0), elastic_sigma=(10.0, 10.0),
        rotation_rad=(0.0, 0.0), scale=(1.0, 1.0),
        brightness=(1.0, 1.0), noise_var=(0.0, 0.0), mirror_p=1.0,
    )
    once = augment(base, mirror_only, RngStream(10))
    twice = augment(once, mirror_only, RngStream(11))
    assert not np.array_equal(once.voxels, base.voxels)
    assert np.array_equal(twice.voxels, base.voxels)
