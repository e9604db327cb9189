import numpy as np
import pytest

from molre.optim import AdamW
from molre.tensor import Tensor


def _param(values, grad):
    t = Tensor(np.array(values, dtype=float), requires_grad=True)
    t.grad[...] = grad
    return t


def test_single_step_matches_hand_computation():
    # one scalar parameter, one step, worked by hand
    p = _param([2.0], [0.5])
    opt = AdamW({"g": {"p": p}}, {"g": 0.1}, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8)
    opt.step()
    m_hat = (0.1 * 0.5) / (1 - 0.9)           # = 0.5
    v_hat = (0.001 * 0.25) / (1 - 0.999)      # = 0.25
    want = 2.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(p.data[0] - want) < 1e-14


def test_decay_is_decoupled_from_gradient():
    # zero gradient: the only movement is the multiplicative decay
    p = _param([4.0], [0.0])
    opt = AdamW({"g": {"p": p}}, {"g": 0.01}, weight_decay=0.1)
    opt.step()
    assert abs(p.data[0] - 4.0 * (1 - 0.01 * 0.1)) < 1e-14


def test_decay_applies_before_moment_update():
    # decayed value must not depend on the gradient magnitude
    p1 = _param([1.0], [1.0])
    p2 = _param([1.0], [100.0])
    for p in (p1, p2):
        AdamW({"g": {"p": p}}, {"g": 0.05}, weight_decay=0.2).step()
    # both lost exactly the same decay amount; adam part differs by direction only
    decayed = 1.0 * (1 - 0.05 * 0.2)
    step1 = decayed - p1.data[0]
    step2 = decayed - p2.data[0]
    assert step1 > 0 and step2 > 0
    # bias-corrected first step is ~lr regardless of gradient scale
    assert abs(step1 - step2) < 1e-6


def test_two_steps_match_reference_loop():
    rng = np.random.default_rng(0)
    p = _param(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    grads = [p.grad.copy(), rng.normal(size=(3, 2))]
    opt = AdamW({"g": {"p": p}}, {"g": 0.02}, weight_decay=0.01)

    # independent reference implementation
    x = p.data.copy()
    m = np.zeros_like(x); v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        x = x * (1 - 0.02 * 0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.02 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)

    opt.step()
    p.grad[...] = grads[1]
    opt.step()
    assert np.allclose(p.data, x, atol=1e-15)


def test_per_group_learning_rates():
    a = _param([1.0], [1.0])
    b = _param([1.0], [1.0])
    opt = AdamW({"fast": {"a": a}, "slow": {"b": b}}, {"fast": 0.1, "slow": 0.001},
                weight_decay=0.0)
    opt.step()
    assert (1.0 - a.data[0]) > 50 * (1.0 - b.data[0])


def test_missing_lr_rejected():
    p = _param([1.0], [0.0])
    with pytest.raises(ValueError):
        AdamW({"g": {"p": p}}, {})


def test_frozen_parameter_rejected_when_built():
    frozen = Tensor(np.zeros(2))  # no gradient buffer
    with pytest.raises(ValueError, match="'w' has no gradient buffer"):
        AdamW({"g": {"w": frozen}}, {"g": 0.1})


def test_parameters_become_views_of_one_arena_per_group():
    a = _param([1.0, 2.0], [0.5, 0.5])
    b = _param([[3.0]], [0.25])
    opt = AdamW({"g": {"a": a, "b": b}}, {"g": 0.1})
    data, grad, m, v = opt.arenas["g"]
    assert data.tolist() == [1.0, 2.0, 3.0] and grad.tolist() == [0.5, 0.5, 0.25]
    assert np.shares_memory(a.data, data) and np.shares_memory(b.grad, grad)
    assert b.data.shape == (1, 1)
    opt.step()
    assert np.array_equal(np.concatenate([a.data.ravel(), b.data.ravel()]), data)


def test_clip_global_norm_scales_jointly():
    a = _param([0.0], [3.0])
    b = _param([0.0], [4.0])
    opt = AdamW({"g": {"a": a, "b": b}}, {"g": 0.1})
    pre = opt.clip_global_norm(1.0)
    assert abs(pre - 5.0) < 1e-12
    post = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert post <= 1.0 and post > 0.999


def test_clip_noop_below_threshold():
    a = _param([0.0], [0.3])
    opt = AdamW({"g": {"a": a}}, {"g": 0.1})
    opt.clip_global_norm(5.0)
    assert a.grad[0] == 0.3


def test_zero_grad_clears_all_groups():
    a = _param([0.0], [1.0]); b = _param([0.0], [2.0])
    opt = AdamW({"x": {"a": a}, "y": {"b": b}}, {"x": 0.1, "y": 0.1})
    opt.zero_grad()
    assert a.grad[0] == 0.0 and b.grad[0] == 0.0


def test_state_roundtrip_resumes_identically():
    rng = np.random.default_rng(1)
    grads = [rng.normal(size=4) for _ in range(6)]

    def run(n, start_p, opt=None):
        if opt is None:
            p = _param(start_p, np.zeros(4))
            opt = AdamW({"g": {"p": p}}, {"g": 0.05}, weight_decay=0.01)
        p = opt.groups["g"]["p"]
        for g in grads[opt.step_count:opt.step_count + n]:
            p.grad[...] = g
            opt.step()
        return p.data.copy(), opt

    straight, _ = run(6, np.ones(4))

    half, opt1 = run(3, np.ones(4))
    saved = {k: v.copy() for k, v in opt1.state_tensors().items()}
    p2 = _param(half, np.zeros(4))
    opt2 = AdamW({"g": {"p": p2}}, {"g": 0.05}, weight_decay=0.01)
    opt2.load_state(saved, step_count=3)
    resumed, _ = run(3, None, opt2)

    assert np.array_equal(resumed, straight)


def test_state_tensor_names():
    p = _param([1.0], [0.0])
    opt = AdamW({"g": {"w": p}}, {"g": 0.1})
    assert set(opt.state_tensors()) == {"opt.m.w", "opt.v.w"}
