"""Run one benchmark workload against the molre source in this checkout and
print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload (see workloads.py) is repeated while another repeat of average
length fits in `--seconds`, at least once. Every input comes from `--seed`.
Human-readable tables come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json,
measured with nothing patched.
With `--trace 1` each untraced repeat is followed by a traced one (see
tracing.py); the metrics are the per-layer ones, per repeat, plus the
tracing overhead on each end-to-end metric.

Failed operations are non-zero CLI exits, exceptions such as NumericalAbort,
and failed output checks: a non-finite loss or AUC, a missing or
out-of-range report, a repeat whose loss/AUC trace differs bitwise from the
first, and a traced repeat whose outputs differ from the untraced ones.
`failed / attempted` is the run's failed-operation share.

Full results, with host facts, go to .perfbench_out/ in the checkout;
spans of a traced run go beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
HELD_OUT_SEED = 9973  # never used while tuning; later performance claims are re-checked on it

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cycle_s": "s",
    "train_samples_per_s": "1/s",
    "val_studies_per_s": "1/s",
}
RATES = ("train_samples_per_s", "val_studies_per_s")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentiles(values: list[float]) -> dict:
    """Median and the highest of p75/p90/p99/p99.9 that has at least ten
    samples beyond it, with the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs)}
    for q in (99.9, 99.0, 90.0, 75.0):
        rank = math.ceil(round(q * n / 100, 9))  # nearest rank
        if n - rank >= 10:
            out[f"p{q:g}"] = xs[rank - 1]
            break
    return out


def end_to_end(repeats) -> dict[str, float]:
    """Medians over set-ups, cycles, and training and scoring calls."""
    def median(xs) -> float:
        xs = list(xs)
        return statistics.median(xs) if xs else 0.0  # nothing ran: the run has failed already

    return {
        "setup_s": median(s for r in repeats for s in r.setup_s),
        "cycle_s": median(s for r in repeats for s in r.cycle_s),
        "train_samples_per_s": median(w / s for r in repeats for s, w in r.train if s > 0),
        "val_studies_per_s": median(w / s for r in repeats for s, w in r.score if s > 0),
    }


def pooled(repeats) -> dict[str, list[float]]:
    """Per-call timings pooled over repeats, in the order they ran."""
    pooled: dict[str, list[float]] = {"setup_s": [s for r in repeats for s in r.setup_s]}
    pooled["cycle_s"] = [s for r in repeats for s in r.cycle_s]
    pooled["train_call_s"] = [s for r in repeats for s, _ in r.train]
    pooled["score_call_s"] = [s for r in repeats for s, _ in r.score]
    for r in repeats:
        for k, v in r.phases.items():
            pooled.setdefault(k, []).append(v)
    return {k: v for k, v in pooled.items() if v}


def overhead(untraced: dict, traced: dict) -> dict[str, float]:
    """Relative slowdown under tracing, per end-to-end metric."""
    return {
        f"trace.overhead.{k}": (untraced[k] / traced[k] if k in RATES else traced[k] / untraced[k]) - 1.0
        for k in untraced
    }


def _fingerprint(obj):
    """Outputs with every float as its exact hex form, for bitwise comparison."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_fingerprint(x) for x in obj]
    return obj


def check_repeats(untraced, traced) -> tuple[int, list[str]]:
    """Operations attempted and failures over all repeats, counting as one
    more operation each comparison of a later repeat's outputs, traced or
    not, with the first repeat's."""
    repeats = untraced + traced
    attempted = sum(r.attempted for r in repeats)
    failures = [f for r in repeats for f in r.failures]
    reference = _fingerprint(untraced[0].outputs)
    for label, group in (("repeat", untraced[1:]), ("traced repeat", traced)):
        for i, r in enumerate(group):
            attempted += 1
            if _fingerprint(r.outputs) != reference:
                failures.append(f"{label} {i}: loss/AUC trace differs bitwise from the first repeat")
    return attempted, failures


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, or None where
    /proc/stat is missing. Steal is time the hypervisor gave to other guests."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def host_facts(seed: int, steal_share: float | None) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "steal_share": steal_share,  # CPU taken by other guests during the run
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it is
    another BLAS or cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and l.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, sizes, work_root: Path) -> dict:
    """Repeat the workload for about `seconds`; return everything the report
    and the result line need."""
    from molre.config import RunConfig
    from workloads import WORKLOADS

    run_repeat = WORKLOADS[name]
    untraced, traced, tracers = [], [], []
    t0 = perf_counter()
    while True:
        untraced.append(run_repeat(seed, sizes, work_root))
        if trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced.append(run_repeat(seed, sizes, work_root))
            tracers.append(tracer)
        # stop unless one more repeat of average length still fits
        elapsed = perf_counter() - t0
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break

    attempted, failures = check_repeats(untraced, traced)
    timings = pooled(untraced)
    result = {
        "workload": name,
        "repeats": len(untraced),
        "end_to_end": end_to_end(untraced),
        "series": {k: percentiles(v) for k, v in timings.items()},
        "timings": timings,
        "attempted": attempted,
        "failures": failures,
    }
    if trace:
        num_convs = len(RunConfig().stub_channels)
        layers = tracing.median_values([tracing.layer_values(t, num_convs) for t in tracers])
        layers.update(overhead(result["end_to_end"], end_to_end(traced)))
        within = None if name == "cli-cycle" else "training.run_epoch"
        result["layers"] = layers
        result["shares"] = tracing.median_values([tracing.group_shares(t, within) for t in tracers])
        result["absent_targets"] = tracing.absent_targets()
        result["never_fired"] = sorted(
            m.name for m in tracing.LAYER_METRICS
            if name in m.fires_on and not set(m.spans) & {s.name for s in tracers[0].spans}
        )
        result["spans"] = [t.dump() for t in tracers]
    return result


def report(result: dict, host: dict, trace: bool) -> list[str]:
    lines = [f"perfbench {result['workload']}: {result['repeats']} untraced repeat(s)"
             + (", each followed by a traced one" if trace else "")]
    lines.append("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    lines.append("end-to-end (median over set-ups, cycles and calls):")
    for k, v in result["end_to_end"].items():
        lines.append(f"  {k:<24} {v:>14.6g} {END_TO_END[k]}")
    lines.append("timings in seconds (median, highest percentile with >= 10 samples beyond, count):")
    for k, st in result["series"].items():
        extra = "  ".join(f"{q}={v:.6g}" for q, v in st.items() if q not in ("n", "p50"))
        lines.append(f"  {k:<24} p50={st['p50']:.6g}  {extra}  n={st['n']}".rstrip())
    if trace:
        lines.append("per layer, per repeat (self time unless a count):")
        by_name = {m.name: m for m in tracing.LAYER_METRICS}
        for k, v in result["layers"].items():
            m = by_name.get(k)
            unit = m.unit if m else "share"
            note = ""
            if v is None:
                note = "ABSENT: target no longer exists"
            elif m and k in result["never_fired"]:
                note = "FLAG: never fired on the workload it is mapped to"
            elif m and result["workload"] not in m.fires_on:
                note = "(not on this workload)"
            elif m:
                note = m.note
            shown = "absent" if v is None else f"{v:.6g}"
            moves = f"-> {m.moves}" if m else ""
            lines.append(f"  {k:<30} {shown:>12} {unit:<6} {moves} {note}".rstrip())
        where = "all traced time" if result["workload"] == "cli-cycle" else "run_epoch"
        lines.append(f"self-time share of {where}, by layer group:")
        ranked = sorted(result["shares"].items(), key=lambda kv: -kv[1])
        for g, share in ranked:
            lines.append(f"  {g:<14} {share:7.1%}")
        lines.append(f"largest self-time group: {ranked[0][0]}")
        for t in result["absent_targets"]:
            lines.append(f"absent target: {t}")
    share = len(result["failures"]) / result["attempted"]
    lines.append(f"checks: attempted={result['attempted']} failed={len(result['failures'])} "
                 f"failed_ops_share={share:g}")
    lines += [f"  FAILED: {f}" for f in result["failures"]]
    return lines


def result_line(result: dict, trace: bool) -> dict:
    """The last line of output. A per-layer metric whose target no longer
    exists has the value null."""
    if trace:
        units = {m.name: m.unit for m in tracing.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units.get(k, "share")} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-molre", "cli-cycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "molre" / "__init__.py").is_file():
        print(f"perfbench: no molre source at {ROOT / 'src' / 'molre'}", file=sys.stderr)
        return 2
    if args.workload != "cli-cycle":
        # the step loop's matrices are small: a second BLAS thread adds no
        # speed, only a wait on a core the host may be lending elsewhere
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Sizes

    OUT.mkdir(exist_ok=True)
    work_root = OUT / f"work-{os.getpid()}"
    work_root.mkdir()
    before = _cpu_ticks()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Sizes(), work_root)
    finally:
        shutil.rmtree(work_root)
    after = _cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = round((after[0] - before[0]) / (after[1] - before[1]), 4)
    host = host_facts(args.seed, steal)
    print("\n".join(report(result, host, bool(args.trace))))

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps({"host": host, **result}, indent=1))

    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
