"""Span tracing for the benchmark, applied from outside the library.

A traced pass swaps each target in `TARGETS` for a wrapper that opens a
span on entry and closes it on exit. Each target is patched in the namespace
where its caller looks it up: `molre.training.focal_loss`, not
`molre.losses.focal_loss`, because the trainer calls the name it imported.
A target that no longer exists is recorded as absent and never patched, so
a refactor that deletes a class or alias shows up by name in the report
instead of as a crash or a zero.

Spans live in memory (name, start, end, parent, count) and are written out
once the run ends. A layer's self time is its span's duration minus the
durations of its direct children; spans nest strictly because the workloads
run on one thread.
"""

from __future__ import annotations

import importlib
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1   # index of the enclosing span in Tracer.spans, -1 at the root
    count: float = 0.0  # work done by this call, for targets that have a counter


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.study: str | None = None  # id of the study most recently windowed
        self.embedded: list[str] = []  # study ids fed to the 2D trunk, in order

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = perf_counter()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.count] for s in self.spans]


# -- counters: (tracer, args, result) -> work done by one call ---------------

def _rows(tracer, args, out):
    return args[1].shape[0]


def _tensors(tracer, args, out):
    return sum(len(group) for group in args[0].groups.values())


def _file_size(tracer, args, out):
    return os.path.getsize(args[0])


def _conv_gflop(tracer, args, out):
    # one multiply-add per (output element, input channel, kernel tap)
    w = args[1]
    return 2.0 * out.size * (w.size // w.shape[0]) / 1e9


def _slices_2d(tracer, args, out):
    return args[1].shape[0]


def _slices_3d(tracer, args, out):
    return args[1].shape[0] * args[1].shape[2]


# these two pair each 2D trunk call with the study windowed just before it,
# for the unique ratio; they count no work of their own
def _note_study(tracer, args, out):
    tracer.study = args[0].sample_id
    return 0.0


def _embed_study(tracer, args, out):
    tracer.embedded.append(tracer.study)
    return 0.0


@dataclass(frozen=True)
class Target:
    span: str
    where: str  # "module:attr.path", the place the caller looks the name up
    count: Callable | None = None


TARGETS = (
    # CLI commands and trainer entry points: parent spans
    Target("cli.synth", "molre.cli:cmd_synth"),
    Target("cli.train", "molre.cli:cmd_train"),
    Target("cli.eval", "molre.cli:cmd_eval"),
    Target("training.step_epoch", "molre.training:Trainer.step_epoch"),
    Target("training.run_epoch", "molre.training:Trainer.run_epoch"),
    Target("training.validate", "molre.training:Trainer.validate"),
    Target("training.save_state", "molre.training:Trainer.save_state"),
    Target("training.trunk_cache", "molre.training:trunk_cache"),
    # adapters
    Target("adapters.router.fwd", "molre.adapters:Router.forward_cached"),
    Target("adapters.router.bwd", "molre.adapters:Router.backward"),
    Target("adapters.bank.fwd", "molre.adapters:MolreLayer.forward_cached", _rows),
    Target("adapters.bank.bwd", "molre.adapters:MolreLayer.backward"),
    Target("adapters.lora.fwd", "molre.adapters:LoraAdapter.delta", _rows),
    Target("adapters.lora.bwd", "molre.adapters:LoraAdapter.delta_backward"),
    # model glue around the layers
    Target("model.fwd", "molre.model:SliceModel.forward_trunk_cached"),
    Target("model.fwd", "molre.model:VolumeModel.forward_trunk_cached"),
    Target("model.bwd", "molre.model:SliceModel.backward"),
    Target("model.bwd", "molre.model:VolumeModel.backward"),
    Target("model.trunk_features", "molre.model:SliceModel.trunk_features", _embed_study),
    # optimizer
    Target("optim.step", "molre.optim:AdamW.step", _tensors),
    Target("optim.clip", "molre.optim:AdamW.clip_global_norm"),
    Target("optim.zero_grad", "molre.optim:AdamW.zero_grad"),
    # pooler, head, loss, sampler
    Target("pipeline.pooler.fwd", "molre.pipeline:AttentionPooler.forward_cached"),
    Target("pipeline.pooler.bwd", "molre.pipeline:AttentionPooler.backward"),
    Target("pipeline.head.fwd", "molre.pipeline:ClassifierHead.forward_cached"),
    Target("pipeline.head.bwd", "molre.pipeline:ClassifierHead.backward"),
    Target("losses.focal.fwd", "molre.training:focal_loss"),
    Target("losses.focal.bwd", "molre.training:focal_loss_backward"),
    Target("sampling.expand", "molre.training:expand_indices"),
    # frozen trunk
    Target("pipeline.trunk2d", "molre.pipeline:SliceBackbone.trunk", _slices_2d),
    Target("pipeline.trunk3d", "molre.pipeline:VolumeBackbone.trunk", _slices_3d),
    Target("pipeline.conv", "molre.pipeline:_conv2d_relu", _conv_gflop),
    Target("pipeline.conv", "molre.pipeline:_conv3d_relu", _conv_gflop),
    # data path
    Target("synthetic.render", "molre.cli:synth_sample"),
    Target("preprocess.window", "molre.training:hu_window"),
    Target("preprocess.windowed", "molre.training:windowed", _note_study),
    Target("volumes.write", "molre.cli:write_volume", _file_size),
    Target("volumes.read", "molre.volumes:read_volume", _file_size),
    # checkpoints and metrics
    Target("checkpoint.save", "molre.training:save_checkpoint", _file_size),
    Target("checkpoint.load", "molre.cli:load_checkpoint"),
    Target("checkpoint.load", "molre.training:load_checkpoint"),
    Target("metrics.auc", "molre.training:per_class_auc"),
    Target("metrics.auc", "molre.metrics:per_class_auc"),
)


def _resolve(where: str):
    """(owner, attribute name) for a target, or None when it no longer exists."""
    module_name, path = where.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _wrap(fn, tracer: Tracer, target: Target):
    @wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(target.span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if target.count is not None:
            tracer.spans[idx].count = float(target.count(tracer, args, out))
        return out

    return traced


def absent_targets(targets=TARGETS) -> list[str]:
    return [t.where for t in targets if _resolve(t.where) is None]


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Install a span wrapper on every target that exists; restore on exit."""
    restore = []
    try:
        for target in targets:
            found = _resolve(target.where)
            if found is None:
                continue
            owner, attr = found
            restore.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, _wrap(getattr(owner, attr), tracer, target))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]
    moves: str             # which end-to-end metric it should move, on which workload
    fires_on: tuple[str, ...]  # workloads on which its spans must fire
    kind: str = "self"     # how the value is derived from the spans, see `layer_values`
    note: str = ""


ALL = ("train-molre", "cli-cycle")
CLI = ("cli-cycle",)
ADAPTERS = "train_samples_per_s, val_studies_per_s @ train-molre"
LORA_ADAPTER = "train_samples_per_s @ cli-cycle"
STEP = "train_samples_per_s @ train-molre"
TRUNK = "cycle_s, train_samples_per_s, val_studies_per_s @ cli-cycle"

LAYER_METRICS = (
    LayerMetric("adapters.router.fwd_s", "s", "lower", ("adapters.router.fwd",), ADAPTERS, ALL),
    LayerMetric("adapters.router.bwd_s", "s", "lower", ("adapters.router.bwd",), ADAPTERS, ALL),
    LayerMetric("adapters.bank.fwd_s", "s", "lower", ("adapters.bank.fwd",), ADAPTERS, ALL),
    LayerMetric("adapters.bank.bwd_s", "s", "lower", ("adapters.bank.bwd",), ADAPTERS, ALL),
    LayerMetric("adapters.lora.fwd_s", "s", "lower", ("adapters.lora.fwd",), LORA_ADAPTER, CLI),
    LayerMetric("adapters.lora.bwd_s", "s", "lower", ("adapters.lora.bwd",), LORA_ADAPTER, CLI),
    LayerMetric("adapters.rows_per_call", "rows", "higher",
                ("adapters.bank.fwd", "adapters.lora.fwd"), ADAPTERS, ALL, "per_call"),
    LayerMetric("optim.step_s", "s", "lower", ("optim.step",), STEP, ALL),
    LayerMetric("optim.clip_s", "s", "lower", ("optim.clip",), STEP, ALL),
    LayerMetric("optim.zero_grad_s", "s", "lower", ("optim.zero_grad",), STEP, ALL),
    LayerMetric("optim.tensors_per_step", "count", "lower", ("optim.step",), STEP, ALL, "per_call"),
    LayerMetric("pipeline.pooler.fwd_s", "s", "lower", ("pipeline.pooler.fwd",), STEP, ALL),
    LayerMetric("pipeline.pooler.bwd_s", "s", "lower", ("pipeline.pooler.bwd",), STEP, ALL),
    LayerMetric("pipeline.head.fwd_s", "s", "lower", ("pipeline.head.fwd",), STEP, ALL),
    LayerMetric("pipeline.head.bwd_s", "s", "lower", ("pipeline.head.bwd",), STEP, ALL),
    LayerMetric("losses.focal.fwd_s", "s", "lower", ("losses.focal.fwd",), STEP, ALL),
    LayerMetric("losses.focal.bwd_s", "s", "lower", ("losses.focal.bwd",), STEP, ALL),
    LayerMetric("sampling.expand_s", "s", "lower", ("sampling.expand",), STEP, ALL),
    LayerMetric("model.fwd_s", "s", "lower", ("model.fwd",), STEP, ALL),
    LayerMetric("model.bwd_s", "s", "lower", ("model.bwd",), STEP, ALL),
    LayerMetric("training.step_loop_self_s", "s", "lower", ("training.run_epoch",), STEP, ALL),
    LayerMetric("pipeline.trunk2d_s", "s", "lower", ("pipeline.trunk2d",), TRUNK, CLI),
    LayerMetric("pipeline.trunk3d_s", "s", "lower", ("pipeline.trunk3d",), TRUNK, CLI),
    LayerMetric("pipeline.conv0_s", "s", "lower", ("pipeline.conv",), TRUNK, CLI, "conv0"),
    LayerMetric("pipeline.conv1_s", "s", "lower", ("pipeline.conv",), TRUNK, CLI, "conv1"),
    LayerMetric("pipeline.conv2_s", "s", "lower", ("pipeline.conv",), TRUNK, CLI, "conv2"),
    LayerMetric("pipeline.trunk.slices", "slices", "lower",
                ("pipeline.trunk2d", "pipeline.trunk3d"), TRUNK, CLI, "count"),
    LayerMetric("pipeline.trunk.gflop", "GFLOP", "lower", ("pipeline.conv",), TRUNK, CLI, "count",
                "computed from conv shapes, not measured"),
    LayerMetric("pipeline.trunk.unique_ratio", "ratio", "higher",
                ("model.trunk_features", "preprocess.windowed"), TRUNK, CLI, "unique"),
    LayerMetric("synthetic.render_s", "s", "lower", ("synthetic.render",), TRUNK, CLI),
    LayerMetric("preprocess.window_s", "s", "lower", ("preprocess.window",), TRUNK, CLI),
    LayerMetric("volumes.write_s", "s", "lower", ("volumes.write",), TRUNK, CLI),
    LayerMetric("volumes.read_s", "s", "lower", ("volumes.read",), TRUNK, CLI),
    LayerMetric("volumes.bytes_read", "bytes", "lower", ("volumes.read",), TRUNK, CLI, "count"),
    LayerMetric("volumes.bytes_written", "bytes", "lower", ("volumes.write",), TRUNK, CLI, "count"),
    LayerMetric("checkpoint.save_s", "s", "lower", ("checkpoint.save",), TRUNK, CLI),
    LayerMetric("checkpoint.load_s", "s", "lower", ("checkpoint.load",), TRUNK, CLI),
    LayerMetric("checkpoint.bytes_written", "bytes", "lower", ("checkpoint.save",), TRUNK, CLI, "count"),
    LayerMetric("training.checkpoint_stall_s", "s", "lower", ("training.save_state",), TRUNK, CLI, "stall"),
    LayerMetric("metrics.auc_s", "s", "lower", ("metrics.auc",),
                "val_studies_per_s @ train-molre, cli-cycle", ALL),
    LayerMetric("training.validate_s", "s", "lower", ("training.validate",),
                "val_studies_per_s @ all", ALL),
    LayerMetric("training.trunk_cache_s", "s", "lower", ("training.trunk_cache",), TRUNK, CLI),
)

# layer groups for the share table: which layer dominates each workload
GROUPS = {
    "adapters": ("adapters.",),
    "optim": ("optim.",),
    "pooler+head": ("pipeline.pooler.", "pipeline.head."),
    "losses": ("losses.",),
    "model glue": ("model.fwd", "model.bwd"),
    "step loop": ("training.run_epoch",),
    "trunk": ("pipeline.trunk", "pipeline.conv", "model.trunk_features"),
    "data": ("synthetic.", "preprocess.", "volumes."),
    "checkpoint": ("checkpoint.",),
    "metrics": ("metrics.",),
    "other": ("",),
}


def layer_values(tracer: Tracer, num_convs: int) -> dict[str, float | None]:
    """Every per-layer metric from one traced pass; busy times are self times
    in seconds. A metric whose targets no longer exist is None (absent); one
    whose targets exist but never fired is 0."""
    present = {t.span for t in TARGETS if _resolve(t.where) is not None}
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)
    conv_order: dict[int, int] = {}
    seen_under: dict[int, int] = {}
    for i in by_name.get("pipeline.conv", []):
        parent = tracer.spans[i].parent
        conv_order[i] = seen_under.get(parent, 0) % num_convs
        seen_under[parent] = seen_under.get(parent, 0) + 1

    out: dict[str, float | None] = {}
    for m in LAYER_METRICS:
        # the unique ratio pairs two spans; the others need any one of theirs
        if m.kind == "unique":
            is_absent = not set(m.spans) <= present
        else:
            is_absent = not set(m.spans) & present
        if is_absent:
            out[m.name] = None
            continue
        idx = [i for span in m.spans for i in by_name.get(span, [])]
        if m.kind == "self":
            value = sum(self_t[i] for i in idx)
        elif m.kind.startswith("conv"):
            k = int(m.kind[4:])
            value = sum(self_t[i] for i in idx if conv_order[i] == k)
        elif m.kind == "count":
            value = sum(tracer.spans[i].count for i in idx)
        elif m.kind == "per_call":
            value = sum(tracer.spans[i].count for i in idx) / len(idx) if idx else 0.0
        elif m.kind == "stall":
            value = sum(
                tracer.spans[i].end - tracer.spans[i].start
                for i in idx
                if tracer.spans[i].parent >= 0
                and tracer.spans[tracer.spans[i].parent].name == "training.step_epoch"
            )
        elif m.kind == "unique":
            n = len(tracer.embedded)
            value = len(set(tracer.embedded)) / n if n else 0.0
        else:
            raise ValueError(f"unknown metric kind {m.kind!r}")
        out[m.name] = float(value)
    return out


def group_shares(tracer: Tracer, within: str | None = None) -> dict[str, float]:
    """Self time per layer group as a share of the traced time: of all root
    spans, or only of the spans under `within` spans (e.g. run_epoch)."""
    self_t = tracer.self_times()
    spans = tracer.spans

    def inside(i: int) -> bool:
        while i >= 0:
            if spans[i].name == within:
                return True
            i = spans[i].parent
        return False

    keep = [i for i in range(len(spans)) if within is None or inside(i)]
    total = sum(self_t[i] for i in keep)
    shares = {g: 0.0 for g in GROUPS}
    for i in keep:
        for g, prefixes in GROUPS.items():
            if spans[i].name.startswith(prefixes):
                shares[g] += self_t[i] / total if total else 0.0
                break
    return shares


def median_values(passes: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Per key, the median over passes; None (absent) stays None."""
    out = {}
    for k, v in passes[0].items():
        out[k] = None if v is None else statistics.median(p[k] for p in passes)
    return out
