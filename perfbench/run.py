"""stablespan benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload accept-large --seed 1 --seconds 30 --trace 0

One request is one in-process `stablespan.cli.run([subcommand, file, "--json",
...])` call with stdout captured.  Requests run in a closed loop with one
client: the next starts when the previous returns.  The loop runs whole
passes over the workload's fixed request list, at least three, until about
`--seconds` of request time are done.  After each request, outside its
timing, it times a fixed calibration (`speed.py`); every time reported is
scaled by it to the reference machine's speed, and each request's latency is
its median over the passes.  Every response is checked by `gate.check` after
the loop, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and then
traced for half the time each and prints the per-layer metrics.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records what was measured (input digest, source
digest, git commit, Python version, CPU count).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import speed
import workloads
from tracing import ROOT_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"

# Passes per end-to-end run, at least: each request's latency is its median.
MIN_PASSES = 3
# Cold imports per run for setup_s, and calibrations after each one.
SETUP_IMPORTS = 20
SETUP_CALIBRATIONS = 5

# Times the import, then calibrates in the same interpreter: the child may
# run on another core than the benchmark, under other neighbours.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import stablespan.cli\n"
    "seconds = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed, statistics\n"
    "calibrations = [speed.timed_calibration() for _ in range(int(sys.argv[3]))]\n"
    "print(seconds * speed.REFERENCE_S / statistics.median(calibrations))\n"
)

# Layer self times in one pass over the request list (seconds).
LAYER_TIMES = {
    "formats.parse_s": "formats.parse",
    "formats.serialize_s": "formats.serialize",
    "graphs.normalize_s": "graphs.normalize",
    "recognition.recognize_self_s": "recognition.recognize",
    "recognition.oracle_s": "recognition.oracle",
    "factorization.factor_s": "factorization.factor",
    "factorization.verify_s": "factorization.verify",
    "rankwidth.build_s": "rankwidth.build",
    "rankwidth.cut_rank_s": "rankwidth.cut_rank",
    "rankwidth.exhaustive_s": "rankwidth.exhaustive",
    "spanning.enumerate_s": "spanning.enumerate",
    "spanning.kirchhoff_s": "spanning.kirchhoff",
    "polynomials.arith_s": "polynomials.arith",
    "polynomials.eval_s": "polynomials.eval",
    "probe.falsify_s": "probe.falsify",
    "probe.verify_s": "probe.verify",
    "cli.parser_s": "cli.parser",
    "cli.report_s": "cli.report",
    "cli.other_s": ROOT_LAYER,
}
# Counts in one pass: metric -> (tracer counter, counter keys summed).
LAYER_COUNTS = {
    "recognition.steps": ("counts", ["recognition.steps"]),
    "recognition.pendant_steps": ("counts", ["recognition.pendant_steps"]),
    "recognition.twin_steps": ("counts", ["recognition.twin_steps"]),
    "recognition.scale_steps": ("counts", ["recognition.scale_steps"]),
    "recognition.oracle_calls": ("calls", ["is_distance_hereditary_oracle"]),
    "recognition.core_vertices": ("counts", ["recognition.core_vertices"]),
    "factorization.factors": ("counts", ["factorization.factors"]),
    "rankwidth.cut_rank_calls": ("calls", ["cut_rank"]),
    "spanning.trees": ("counts", ["spanning.trees"]),
    "polynomials.arith_calls": ("calls", ["__mul__", "__add__", "__sub__", "divexact", "substitute_linear"]),
    "polynomials.real_rooted_calls": ("calls", ["is_real_rooted"]),
}


@dataclass
class Loop:
    """One closed-loop phase: each response's latency and the calibration
    after it, by pass, and whether it equals the first response to the same
    request."""

    latencies: list[list[float]] = field(default_factory=list)
    calibrations: list[list[float]] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    outcomes: list[tuple[int, bool]] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def throughput(self) -> float:
        """Requests per second of request time: the requests of one pass
        over the sum of their latencies."""
        return len(self.latencies[0]) / sum(self.request_latencies())

    def request_latencies(self) -> list[float]:
        """Each request's median latency over the passes, each latency
        scaled to the reference machine's speed (`speed.factors`)."""
        scaled = [
            [latency * factor for latency, factor in zip(latencies, speed.factors(calibrations))]
            for latencies, calibrations in zip(self.latencies, self.calibrations)
        ]
        return [statistics.median(column) for column in zip(*scaled)]


class Responses:
    """The first response to each request, checked once by the gate.

    Every later response to the same request must equal it byte for byte
    (the program promises deterministic reports), so every response is
    checked without re-running the gate on repeats.
    """

    def __init__(self, requests: list[workloads.Request]) -> None:
        self.requests = requests
        self.first: dict[int, tuple[int | None, str]] = {}
        self.reasons: dict[int, str | None] = {}

    def record(self, i: int, response: tuple[int | None, str]) -> bool:
        return self.first.setdefault(i, response) == response

    def failures(self, outcomes: list[tuple[int, bool]]) -> list[str]:
        found = []
        for i, same in outcomes:
            if i not in self.reasons:
                self.reasons[i] = gate.check(self.requests[i], *self.first[i])
            reason = self.reasons[i] if same else "differs from the first response to this request"
            if reason is not None:
                found.append(f"{' '.join(self.requests[i].argv)}: {reason}")
        return found


def call_cli(argv: tuple[str, ...]) -> tuple[int | None, str]:
    """One request: `stablespan.cli.run` with stdout and stderr captured."""
    from stablespan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def closed_loop(responses: Responses, seconds: float, call, min_passes: int = 1, after_pass=None) -> Loop:
    """Run whole passes over the requests until about `seconds` of requests.

    The loop stops, after at least `min_passes`, when one more pass would
    overshoot the target by more than stopping now undershoots it.
    `after_pass(seconds_done)` runs between passes, outside their timing.

    A CLI invocation normally starts in a fresh process, with no garbage
    from earlier work.  Collecting before each request, outside its timing,
    gives every request that same clean start, so a collection triggered by
    one request's garbage does not land in the next one.
    """
    loop = Loop()
    while True:
        latencies, calibrations = [], []
        for i, request in enumerate(responses.requests):
            gc.collect()
            t0 = perf_counter()
            try:
                response = call(request.argv)
            except (Exception, SystemExit) as exc:
                response = (None, f"{type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t0)
            loop.outcomes.append((i, responses.record(i, response)))
            gc.collect()
            calibrations.append(speed.timed_calibration())
        loop.pass_seconds.append(sum(latencies))
        loop.latencies.append(latencies)
        loop.calibrations.append(calibrations)
        done = sum(loop.pass_seconds)
        if after_pass is not None:
            after_pass(done)
        if loop.passes >= min_passes and done + done / loop.passes / 2 >= seconds:
            return loop


class SetupSampler:
    """Cold imports of stablespan.cli in fresh interpreters, spread over the
    run so that a slow stretch of the machine touches only a few of them.
    Each import time is scaled to the reference machine's speed by the
    median of calibrations right after it, in the same interpreter."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.times: list[float] = []
        self._import()  # writes the bytecode cache, as an installed package has it

    def _import(self) -> float:
        argv = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH), str(SETUP_CALIBRATIONS)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        return float(done.stdout)

    def __call__(self, seconds_done: float) -> None:
        due = min(SETUP_IMPORTS, math.ceil(SETUP_IMPORTS * seconds_done / self.seconds))
        while len(self.times) < due:
            self.times.append(self._import())

    def median(self) -> float:
        self(self.seconds)
        return statistics.median(self.times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, setup_s: float) -> dict:
    latencies = loop.request_latencies()
    return {
        "throughput_rps": (loop.throughput, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(traced_passes: list[dict], untraced: Loop, traced: Loop, failed_frac: float) -> dict:
    """Layer metrics from the fastest traced pass (`Tracer.take` totals),
    so that the layer times add up to its request time."""
    p = min(traced_passes, key=lambda totals: totals["request"])
    metrics = {name: (p["self"][layer], "s") for name, layer in LAYER_TIMES.items()}
    for name, (kind, keys) in LAYER_COUNTS.items():
        metrics[name] = (sum(p[kind][key] for key in keys), "count")
    falsify_calls = p["calls"]["falsify"]
    metrics["probe.certified_frac"] = (p["counts"]["probe.certified"] / falsify_calls if falsify_calls else 0.0, "fraction")
    metrics["cli.other_frac"] = (p["self"][ROOT_LAYER] / p["request"], "fraction")
    metrics["trace.request_s"] = (p["request"], "s")
    metrics["trace.accounted_frac"] = (sum(p["self"].values()) / p["request"], "fraction")
    metrics["trace.untraced_rps"] = (untraced.throughput, "1/s")
    metrics["trace.traced_rps"] = (traced.throughput, "1/s")
    metrics["trace.overhead_rps"] = (traced.throughput - untraced.throughput, "1/s")
    metrics["failed_frac"] = (failed_frac, "fraction")
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stablespan").rglob("*.py")):
        digest.update(f"{path.relative_to(SRC)}\0".encode() + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablespan" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'stablespan'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablespan.cli  # noqa: F401  (imported before timing, as setup)

    requests, input_digest = workloads.build(args.workload, args.seed, WORKDIR / f"{args.workload}-{args.seed}")
    responses = Responses(requests)
    gc.collect()
    gc.freeze()  # what exists now lives for the whole run; keep collections short
    if args.trace:
        untraced = closed_loop(responses, args.seconds / 2, call_cli)
        tracer, traced_passes = Tracer(), []
        with tracer:
            traced = closed_loop(
                responses,
                args.seconds / 2,
                lambda argv: tracer.request(call_cli, argv),
                after_pass=lambda seconds_done: traced_passes.append(tracer.take()),
            )
        loops = [untraced, traced]
    else:
        setup = SetupSampler(args.seconds)
        loops = [closed_loop(responses, args.seconds, call_cli, MIN_PASSES, setup)]
        setup_s = setup.median()
    attempted = sum(loop.attempted for loop in loops)
    failures = [reason for loop in loops for reason in responses.failures(loop.outcomes)]
    if args.trace:
        metrics = per_layer(traced_passes, untraced, traced, len(failures) / attempted)
    else:
        metrics = end_to_end(loops[0], setup_s)
    for reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": input_digest,
        "source_sha256": source_digest(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests_per_pass": len(requests),
        "passes": [loop.passes for loop in loops],
        "samples": [loop.attempted for loop in loops],
        "pass_seconds": [loop.pass_seconds for loop in loops],
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
