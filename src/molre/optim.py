"""AdamW with decoupled weight decay and named per-group learning rates.

The protocol trains two groups: classification head + pooling query at one
learning rate, adapter/router parameters at a tenth of it. The decay step
multiplies parameters by (1 - lr * wd) before the moment update, so wd=0
reproduces plain Adam bit for bit.

Each group's data, gradients and moments are one contiguous vector apiece
(an arena), so an update is a few whole-vector operations. Building the
optimizer copies each parameter in and rebinds its data and grad to views of
the arena; arrays taken from a tensor before that no longer alias it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamW:
    def __init__(
        self,
        groups: dict[str, dict[str, Tensor]],
        lrs: dict[str, float],
        weight_decay: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        for name in groups:
            if name not in lrs:
                raise ValueError(f"no learning rate for group {name!r}")
        self.groups = {g: dict(params) for g, params in groups.items()}
        self.lrs = dict(lrs)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.step_count = 0
        self.arenas: dict[str, tuple[np.ndarray, ...]] = {}  # group -> (data, grad, m, v)
        self.moments: dict[str, np.ndarray] = {}  # "opt.m.<name>", "opt.v.<name>" -> views
        for gname, params in self.groups.items():
            n = sum(t.size for t in params.values())
            data, grad, _, _ = arena = tuple(np.zeros(n) for _ in range(4))
            off = 0
            for name, t in params.items():
                if t.grad is None:
                    raise ValueError(f"parameter {name!r} has no gradient buffer")
                span = slice(off, off + t.size)
                data[span], grad[span] = t.data.ravel(), t.grad.ravel()
                views = (a[span].reshape(t.shape) for a in arena)
                t.data, t.grad, self.moments[f"opt.m.{name}"], self.moments[f"opt.v.{name}"] = views
                off += t.size
            self.arenas[gname] = arena

    def zero_grad(self) -> None:
        for _, grad, _, _ in self.arenas.values():
            grad.fill(0.0)

    def clip_global_norm(self, max_norm: float) -> float:
        """Scale all gradients so their joint L2 norm is at most max_norm.
        Returns the pre-clip norm. No-op when max_norm <= 0."""
        grads = [grad for _, grad, _, _ in self.arenas.values()]
        total = float(np.sqrt(sum(float(np.dot(g, g)) for g in grads)))
        if max_norm > 0 and total > max_norm:
            scale = max_norm / (total + 1e-6)
            for g in grads:
                g *= scale
        return total

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for gname, (data, grad, m, v) in self.arenas.items():
            lr = self.lrs[gname]
            data *= 1.0 - lr * self.weight_decay  # decoupled decay, before the moments
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (grad * grad)
            data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    # checkpoint support -----------------------------------------------------

    def state_tensors(self) -> dict[str, np.ndarray]:
        return dict(self.moments)

    def load_state(self, tensors: dict[str, np.ndarray], step_count: int) -> None:
        for key, view in self.moments.items():
            view[...] = tensors[key]
        self.step_count = int(step_count)


def adamw_step(state: AdamW) -> None:
    """One optimizer step over the parameters registered in `state`."""
    state.step()
