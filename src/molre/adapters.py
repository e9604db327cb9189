"""Low-rank adapters: the K-expert bank with its soft router, the combined
mixture layer, and the single-adapter baseline as the one-expert bank.

The mixture layer computes, per input row x,

    h = W0 x + sum_i g_i(x) * s * B_i (A_i x)

with gates g(x) = softmax(W2 relu(W1 x + b1) + b2) over the K experts. The
gates are soft — every expert contributes on every input, there is no top-k
truncation — and they are learned purely from the task loss. W0 stays frozen;
only the expert pairs and the router train.

The bank stacks its experts: A is (K*r, d_in) with expert i in rows
i*r:(i+1)*r, and B is (d_out, K*r) with expert i in the same columns. For a
batch of rows X the sum over experts is then one matmul chain,

    H = X W0^T + s * ((X A^T) * repeat(G, r)) B^T,

with no loop over experts. Adapters read frozen trunk features, so their
backward passes accumulate parameter gradients only and return no input
gradient.

The bank owns the expert scaling s = alpha/rank, so a K=1 mixture collapses
exactly to the plain low-rank adapter baseline. That baseline, `LoraAdapter`,
is the bank with K=1 and no router (gate 1): it shares the bank's storage,
init and scale and adds only its ungated update.

The router and the mixture each have one entry point, `forward_cached`,
which takes a plain ndarray and returns the output with the cache its
backward reads.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream
from .tensor import ShapeError, Tensor, softmax, softmax_backward


class ExpertBank:
    """K low-rank experts sharing one (rank, d_in, d_out) signature, stacked:
    A is (K*rank, d_in), B is (d_out, K*rank); expert i owns rows (of A) and
    columns (of B) i*rank:(i+1)*rank. Every expert's update is scaled by
    alpha/rank."""

    prefix = "experts"  # parameter names are "<prefix>.A" and "<prefix>.B"

    def __init__(
        self, num_experts: int, d_in: int, d_out: int, rank: int = 8, alpha: float = 16.0
    ):
        if num_experts < 1:
            raise ValueError("expert bank needs at least one expert")
        if rank < 1 or rank > min(d_in, d_out):
            raise ValueError(f"rank {rank} out of range for ({d_in}, {d_out})")
        self.num_experts = num_experts
        self.d_in = d_in
        self.d_out = d_out
        self.rank = rank
        self.alpha = float(alpha)
        self.scaling = self.alpha / rank
        self.A = Tensor.zeros((num_experts * rank, d_in), requires_grad=True)
        self.B = Tensor.zeros((d_out, num_experts * rank), requires_grad=True)

    def init(self, rng: RngStream) -> None:
        # A ~ N(0, 1/d_in), B = 0: the mixture starts as an exact no-op.
        self.A.data[...] = rng.normal(0.0, 1.0 / np.sqrt(self.d_in), self.A.shape)
        self.B.data.fill(0.0)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.prefix}.A": self.A, f"{self.prefix}.B": self.B}


class LoraAdapter(ExpertBank):
    """Single low-rank update, the one-expert bank with gate 1:
    delta(x) = (alpha/rank) * B (A x), with A rank x d_in and B d_out x rank.
    B starts at zero so a fresh adapter is an exact no-op."""

    prefix = "lora"

    def __init__(self, d_in: int, d_out: int, rank: int = 8, alpha: float = 16.0):
        super().__init__(1, d_in, d_out, rank, alpha)

    def delta(self, x: np.ndarray) -> np.ndarray:
        """Adapter contribution for a batch of rows x (N x d_in)."""
        return self.scaling * ((x @ self.A.data.T) @ self.B.data.T)

    def delta_backward(self, grad_out: np.ndarray, x: np.ndarray) -> None:
        """Accumulate A/B gradients."""
        u = x @ self.A.data.T
        gv = self.scaling * grad_out
        self.B.grad += gv.T @ u
        self.A.grad += (gv @ self.B.data).T @ x


class Router:
    """Two-layer MLP with softmax head producing a simplex over experts."""

    def __init__(self, d_in: int, num_experts: int, hidden: int = 256):
        self.d_in = d_in
        self.num_experts = num_experts
        self.hidden = hidden
        self.W1 = Tensor.zeros((hidden, d_in), requires_grad=True)
        self.b1 = Tensor.zeros((hidden,), requires_grad=True)
        self.W2 = Tensor.zeros((num_experts, hidden), requires_grad=True)
        self.b2 = Tensor.zeros((num_experts,), requires_grad=True)

    def init(self, rng: RngStream) -> None:
        self.W1.data[...] = rng.normal(0.0, np.sqrt(2.0 / self.d_in), self.W1.shape)
        self.b1.data.fill(0.0)
        self.W2.data[...] = rng.normal(0.0, np.sqrt(2.0 / self.hidden), self.W2.shape)
        self.b2.data.fill(0.0)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Gates (N, K) for rows x (N, d_in), each row on the simplex."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeError(f"router: expected (N, {self.d_in}), got {x.shape}")
        # in place: a fresh (N, hidden) array costs more than the add or the relu
        hid = x @ self.W1.data.T
        hid += self.b1.data
        np.maximum(hid, 0.0, out=hid)
        logits = hid @ self.W2.data.T + self.b2.data
        gates = softmax(logits, axis=1)
        return gates, {"x": x, "hid": hid, "gates": gates}

    def backward(self, cache: dict, grad_gates: np.ndarray) -> None:
        """Accumulate the router's parameter gradients."""
        glogits = softmax_backward(grad_gates, cache["gates"], axis=1)
        self.W2.grad += glogits.T @ cache["hid"]
        self.b2.grad += glogits.sum(axis=0)
        gpre = glogits @ self.W2.data
        gpre *= cache["hid"] > 0.0  # relu backward: hid > 0 exactly where its input is
        self.W1.grad += gpre.T @ cache["x"]
        self.b1.grad += gpre.sum(axis=0)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "router.W1": self.W1,
            "router.b1": self.b1,
            "router.W2": self.W2,
            "router.b2": self.b2,
        }


class MolreLayer:
    """Frozen base weight plus a routed bank of low-rank experts.

    `w0` never receives gradients. Every expert contribution is scaled by the
    bank's alpha/rank, so the K=1 case reproduces the plain adapter baseline
    bit for bit.
    """

    def __init__(self, w0: Tensor, bank: ExpertBank, router: Router):
        if bank.num_experts != router.num_experts:
            raise ValueError(
                f"bank has {bank.num_experts} experts, router routes {router.num_experts}"
            )
        if w0.shape != (bank.d_out, bank.d_in):
            raise ShapeError(f"W0 shape {w0.shape} != ({bank.d_out}, {bank.d_in})")
        if router.d_in != bank.d_in:
            raise ShapeError("router input dim differs from expert input dim")
        self.w0 = w0  # frozen: grad buffer intentionally absent
        self.w0.grad = None
        self.bank = bank
        self.router = router

    def init(self, rng: RngStream) -> None:
        self.bank.init(rng.child("experts"))
        self.router.init(rng.child("router"))

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Outputs (N, d_out) for rows x (N, d_in)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.bank.d_in:
            raise ShapeError(f"mixture: expected (N, {self.bank.d_in}), got {x.shape}")
        gates, rcache = self.router.forward_cached(x)
        u = x @ self.bank.A.data.T  # (N, K*r): every expert's down-projection
        rep_gates = np.repeat(gates, self.bank.rank, axis=1)  # gate i on expert i's r columns
        ug = u * rep_gates
        out = x @ self.w0.data.T + self.bank.scaling * (ug @ self.bank.B.data.T)
        return out, {"x": x, "router": rcache, "u": u, "rep_gates": rep_gates, "ug": ug}

    def backward(self, cache: dict, grad_out: np.ndarray) -> None:
        """Accumulate bank and router gradients. W0 is frozen and x is a
        frozen feature, so no input gradient is formed."""
        gs = self.bank.scaling * grad_out
        self.bank.B.grad += gs.T @ cache["ug"]
        gug = gs @ self.bank.B.data
        self.bank.A.grad += (gug * cache["rep_gates"]).T @ cache["x"]
        ggates = (gug * cache["u"]).reshape(-1, self.bank.num_experts, self.bank.rank).sum(axis=2)
        self.router.backward(cache["router"], ggates)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.bank.parameters())
        out.update(self.router.parameters())
        return out


def count_molre_params(
    d_in: int, d_out: int, num_experts: int, rank: int, router_hidden: int
) -> int:
    """Trainable parameter count of one mixture layer (experts + router)."""
    if min(d_in, d_out, num_experts, rank, router_hidden) < 1:
        raise ValueError("all dimensions must be positive")
    experts = num_experts * (rank * d_in + d_out * rank)
    router = (router_hidden * d_in + router_hidden) + (
        num_experts * router_hidden + num_experts
    )
    return experts + router
