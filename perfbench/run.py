"""Benchmark of the tftflip library and its ``tft`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|cli-graph|closed-forms|all \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs as a closed loop for S seconds
(whole rounds, at least two) and the end-to-end metrics are printed.
Their times are at the reference speed of ``speed.py``: the host speed
is probed every 50 ms while the program runs, and each stretch of a
raw time is scaled by the probes on either side of it.  The raw times
are printed too.
With ``--trace 1`` a fixed batch of rounds runs once untraced and once
with the layer functions wrapped; the per-layer metrics and the
tracing overhead (traced minus untraced busy time) are printed and
the spans are written under ``perfbench/results``.  The last line of
a workload's output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``all`` runs the three
workloads one after another.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
from tracer import Tracer, per_layer_units
from workloads import WORKLOADS, Failed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def import_fresh():
    """Import tftflip from this checkout's ``src``, dropping any
    modules left by an earlier set-up so import time is measured."""
    for name in [m for m in sys.modules if m == "tftflip" or m.startswith("tftflip.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tftflip")
    importlib.import_module("tftflip.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tftflip imported from {pkg.__file__}, not from {SRC}")
    return pkg


def attempt(workload, pkg, op):
    try:
        return workload.execute(pkg, op)
    except Exception as exc:  # the benchmark keeps running; the op counts as failed
        return Failed(exc)


def checked(workload, pkg, op, out) -> bool:
    if isinstance(out, Failed):
        return False
    try:
        return bool(workload.check(pkg, op, out))
    except Exception:  # a malformed answer is a wrong answer
        return False


def set_up(workload, seed, tmpdir, small):
    """Import, generate inputs and warm up; returns (pkg, plan)."""
    pkg = import_fresh()
    plan = workload.generate(seed, tmpdir, small)
    for op in plan.warmup:
        out = attempt(workload, pkg, op)
        if not checked(workload, pkg, op, out):
            raise RuntimeError(f"warm-up operation failed: {op.args}")
    return pkg, plan


class Loop:
    """Latencies and outcomes of one closed-loop run."""

    def __init__(self):
        # start and end of each operation; arrays, so that the memory
        # they take hardly moves peak RSS as the number of operations does
        self.starts = array("d")
        self.ends = array("d")
        self.round_ends = []  # per round: number of operations so far
        self.failed = 0
        self.first_error = None
        self.latencies = []  # raw seconds per operation, without probes
        self.scaled = []  # the same at the reference speed (if sampled)
        self.probes = []  # seconds of each probe loop (if sampled)
        self.peak_rss_mib = 0.0  # process peak RSS when the loop ended

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def finish(self, sampler) -> None:
        """Take peak RSS, then turn the intervals into latencies."""
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for start, end in zip(self.starts, self.ends):
            if sampler is None:
                self.latencies.append(end - start)
            else:
                raw, scaled = sampler.measure(start, end)
                self.latencies.append(raw)
                self.scaled.append(scaled)
        if sampler is not None:
            self.probes = sampler.loops


def run_loop(workload, pkg, plan, *, seconds=None, rounds=None, tracer=None,
             sampled=False) -> Loop:
    """Run exactly ``rounds`` rounds, or whole rounds while the next
    one is expected to end within ``seconds`` (at least MIN_ROUNDS).
    Only the calls into tftflip are timed; checking happens between
    them, untraced.  With ``sampled`` the host speed is probed
    throughout and ``Loop.scaled`` is filled in."""
    loop = Loop()
    # the benchmark's own objects (inputs, earlier set-ups) should not
    # make the program's garbage collections slower
    gc.collect()
    gc.freeze()
    sampler = speed.Sampler() if sampled else None
    try:
        with sampler or contextlib.nullcontext():
            _run_rounds(loop, workload, pkg, plan, seconds, rounds, tracer)
        loop.finish(sampler)
    finally:
        gc.unfreeze()
    return loop


def _run_rounds(loop, workload, pkg, plan, seconds, rounds, tracer) -> None:
    clock = time.perf_counter
    begin = clock()
    index = 0
    while True:
        if rounds is not None:
            if index == rounds:
                break
        elif index >= MIN_ROUNDS:
            elapsed = clock() - begin
            if elapsed + elapsed / index > seconds:
                break
        for op in plan.rounds[index % len(plan.rounds)]:
            if workload.fresh_heap:
                # a tft command normally runs in a process of its own:
                # do not let the previous command's collector state
                # leak into this command's time
                gc.collect()
            if tracer is None:
                start = clock()
                out = attempt(workload, pkg, op)
                end = clock()
            else:
                tracer.active = True
                start = clock()
                out = tracer.call(f"op.{op.kind}.n{op.n}", attempt, workload, pkg, op)
                end = clock()
                tracer.active = False
            loop.starts.append(start)
            loop.ends.append(end)
            if not checked(workload, pkg, op, out):
                loop.failed += 1
                if loop.first_error is None:
                    loop.first_error = (op, out)
        loop.round_ends.append(len(loop.starts))
        index += 1


def end_to_end(lat: list, round_ends: list, setup_s: list, rss_mib: float) -> dict:
    """The end-to-end metrics from operation latencies (seconds),
    round boundaries, set-up times and peak RSS."""
    rounds = [sum(lat[a:b]) for a, b in zip([0, *round_ends], round_ends)]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(rounds),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mib": rss_mib,
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def inputs_digest(plan, tmpdir) -> str:
    text = json.dumps(
        [[(op.kind, op.n, op.args) for op in ops] for ops in plan.rounds], default=str
    ).replace(str(tmpdir), "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_error(loop: Loop) -> None:
    op, out = loop.first_error
    print(f"first failed operation: {' '.join(map(str, op.args))}", file=sys.stderr)
    if isinstance(out, Failed):
        traceback.print_exception(out.exc, file=sys.stderr)
    else:
        print(f"wrong answer: {out!r}"[:2000], file=sys.stderr)


def run(name, seed, seconds, trace, small=False) -> dict:
    """One benchmark run; returns the result record."""
    load_start = os.getloadavg()
    workload = WORKLOADS[name]()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as tmpdir:
        intervals = []
        with speed.Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                pkg, plan = set_up(workload, seed, tmpdir, small)
                intervals.append((start, time.perf_counter()))
        setup_raw, setup_s = zip(*(sampler.measure(*i) for i in intervals))
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "inputs_sha256": inputs_digest(plan, tmpdir),
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
        }
        if trace:
            reference = run_loop(workload, pkg, plan, rounds=plan.trace_rounds)
            tracer = Tracer()
            tracer.install(pkg)
            try:
                loop = run_loop(workload, pkg, plan, rounds=plan.trace_rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(overhead_s=loop.busy_s - reference.busy_s)
            units = per_layer_units()
            spans = RESULTS / f"spans-{name}-seed{seed}.json"
            tracer.dump(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
            record["untraced_busy_s"] = reference.busy_s
            loops = (reference, loop)
        else:
            loop = run_loop(workload, pkg, plan, seconds=seconds, sampled=True)
            metrics = end_to_end(loop.scaled, loop.round_ends, setup_s, loop.peak_rss_mib)
            units = END_TO_END_UNITS
            loops = (loop,)
            record["raw_metrics"] = end_to_end(
                loop.latencies, loop.round_ends, setup_raw, loop.peak_rss_mib
            )
            probes = sorted(loop.probes)
            record["probe_ms"] = {
                "count": len(probes),
                "min": probes[0] * 1e3,
                "median": statistics.median(probes) * 1e3,
                "max": probes[-1] * 1e3,
                "reference": speed.REF_S * 1e3,
            }
    attempted = sum(len(l.latencies) for l in loops)
    failed = sum(l.failed for l in loops)
    for l in loops:
        if l.first_error is not None:
            report_error(l)
            break
    record.update(
        loadavg_end=os.getloadavg(),
        samples=len(loop.latencies),
        setup_samples_s=setup_s,
        setup_raw_samples_s=setup_raw,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    with open(RESULTS / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record) -> None:
    print(
        f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"samples={record['samples']} inputs_sha256={record['inputs_sha256']} "
        f"git={record['git_sha']} python={record['python']} nproc={record['nproc']} "
        f"loadavg_start={record['loadavg_start']} loadavg_end={record['loadavg_end']}"
    )
    print(f"fail_ratio {record['fail_ratio']} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    for key, metric in record["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    if "raw_metrics" in record:
        probe = record["probe_ms"]
        print(f"# host probe ms: median {probe['median']:.4f} min {probe['min']:.4f} "
              f"max {probe['max']:.4f} (reference {probe['reference']}, "
              f"{probe['count']} probes)")
        print("# raw: " + " ".join(f"{k}={v:.6g}" for k, v in record["raw_metrics"].items()))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None, small=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tftflip" / "__init__.py").is_file():
        print(f"perfbench: no tftflip sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["TFT_COLOR"] = "0"  # verify rows are compared as plain text
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print_record(run(name, args.seed, args.seconds, args.trace, small))
    return 0


if __name__ == "__main__":
    sys.exit(main())
