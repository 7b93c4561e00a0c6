"""cliffork benchmark.

Run from the repository root:

  python3 bench/run.py --workload sweep|algebra|cli --seed N --seconds S --trace 0|1
  python3 bench/run.py --gate

Each workload is one serial, closed-loop client: the next operation starts
only after the previous one has finished.  CLIFFORK_THREADS is removed from
the environment.  The inputs are fixed; the seed only shuffles the order of
the operations within each pass.

  sweep    in process, run_suite(name, 6) for pseudo, defining, commutation
           and census: 8 quaternionic cells with every tweaked variant,
           d <= 8, identify=False.  The dense SpinMatrix product and
           ext_group_report do most of the work.
  algebra  in process, run_suite for core (p+q <= 6), quotient (p+q <= 7)
           and salingaros (p+q <= 6).  MultiVector, the Gaussian scalars and
           blade_product do the work; SpinMatrix only builds 10 small
           collapse targets, so a matrix-kernel change should not move it.
  cli      each operation is a fresh `python -m cliffork.cli` process running
           one README verb: cold start, identify=True, d = 16 and 32, and the
           CLI's signed letter table.

Every operation is checked: a suite must be ok with the seed's check count,
and a CLI process must exit 0 with the seed's stdout (by SHA-256).

With --trace 0 the run measures for --seconds (at least one whole pass;
the cli workload runs whole passes, at least CLI_MIN_PASSES of them) and
reports the end-to-end metrics:

  setup_s       median time from a fresh interpreter to `import cliffork.cli`
                returning, sampled between operations across the run
  checks_per_s  checks of one pass over the summed sustained latencies of
                its operation kinds (a cli invocation is one check)
  op_p50_ms     p50 and p84 of one pass, each kind at its sustained latency
  op_p90_ms     (p84 is the second slowest of the 11 cli kinds); on sweep
                and algebra the mean suite and the slowest suite

A kind's sustained latency is its slowest in the run, or its median when it
ran fewer than SUSTAINED_MIN_SAMPLES times (see end_to_end).
  peak_rss_mb   peak RSS of the process running the suites, or of the
                largest CLI process

failed_ratio is printed too; the result line carries it as failed /
attempted, since a metric that is 0 at the seed cannot take a relative bound.

With --trace 1 it alternates untraced and traced passes until --seconds have
passed (at least one pair) and reports the per-layer metrics from the traced
passes, with each layer's share of the pass time; tracer.py wraps the
library's entry points from outside, and launch.py does so inside each traced
CLI process.

--gate runs the four sweep suites once at the acceptance gate's own bound
(p+q <= 8) and reports elapsed / limit; it takes minutes and is for
information only.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A run that finds a
wrong output prints that object with "correct": false and exits 1.  Details
(machine, per-operation latencies, gate headroom, the per-layer table) go to
bench/out/<workload>-seed<N>-trace<T>.json, and spans to bench/out/spans-*.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# suite, bound, check count at the seed commit
SUITES = {
    "sweep": (("pseudo", 6, 699), ("defining", 6, 2574),
              ("commutation", 6, 5028), ("census", 6, 18)),
    "algebra": (("core", 6, 40107), ("quotient", 7, 10362), ("salingaros", 6, 28)),
}
# Runtime limits in tests/test_acceptance.py.  Criteria 8-10 run the algebra
# suites at the bounds this benchmark uses; criteria 4-7 run the sweep suites
# at p+q <= 8, which only --gate does.
ALGEBRA_GATE_S = {"salingaros": 30.0, "quotient": 30.0, "core": 10.0}
SWEEP_GATE_S = {"pseudo": 60.0, "defining": 60.0, "commutation": 120.0, "census": 120.0}

# argv and the SHA-256 of its stdout at the seed commit
CLI_OPS = (
    ("classify --p 1 --q 3", "d5cdc7626cb47a297b78b08d04ba8b5dffcd4079f87b660e8df80de189d3bbc6"),
    ("classify --complex 4 --mark 1,3 --format json",
     "898f5262bc8eefa424b0ac2845cd99806763be9aaed0f915f7653f32ca308f49"),
    ("table --kind rings", "bb5b6c5f892f755b11c720a577d86ae2ad580f1bfc637daf032b1089a0840c47"),
    ("ext-group --basis gamma", "b830823447b314254da23bf6eec1655a4c39f8bd4591cb7500c2b383de4b0230"),
    ("ext-group --p 1 --q 3 --format json",
     "bda45369ec24972a83094b497d200ebdfd4aa06dcd5865492de7773f3198f577"),
    ("ext-group --p 6 --q 2", "a7f40aa8e323c54ac4a7db88715136999cce7fb1a67afc87dca27483df6f578c"),
    ("ext-group --p 6 --q 4", "9245b7ee95c59ab53d112d81436fe5c0ae1a95c4ca21977c1bc14a1669894f34"),
    ("cover --p 1 --q 3 --cpt", "41c0b368afeb3e79fda6958d0d49e5c1d8eadf26e426d9047dc76ee5b51f1b06"),
    ("cover --complex 4 --format json",
     "3289fdb35f97bd21babcac2656475ecd49e9f3c3ce40bcef44f589c80f50a185"),
    ("quotient --p 2 --q 1", "8af9f2c3ab006cf44bb46d02464cdbe8c1f2231960af241d0a84d0d999ce8000"),
    ("quotient --complex 3 --mark 0,3",
     "244770e7b5a07b11176facf3af6f58b5ef9f1f4a31b4f0577a55052217b51410"),
)
# op_p90_ms stands for the highest percentile with at least 10 invocations
# beyond it.  The cli workload runs at least 6 whole passes of its 11
# invocations, and 16% of 66 is 10.6, so that is p84: in a pass, the second
# slowest kind, ext-group (6,2).  The level is fixed rather than taken from
# the sample count, which would jump between kinds as the program got faster.
CLI_MIN_PASSES = 6
TAIL_LEVEL = 0.84
SETUP_SAMPLES = 7
SUSTAINED_MIN_SAMPLES = 3
OP_TIMEOUT_S = 60

Sample = namedtuple("Sample", "kind seconds checks ok note")


# ---------------------------------------------------------------------------
# operations


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CLIFFORK_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def suite_op(kind: str, bound: int, want: int) -> Sample:
    from cliffork import cli

    t0 = time.perf_counter()
    try:
        result = cli.run_suite(kind, bound)
    except Exception as exc:  # a crashing suite is a failed operation
        return Sample(kind, time.perf_counter() - t0, want, False, repr(exc))
    seconds = time.perf_counter() - t0
    ok = result.ok and result.checked == want
    note = "" if ok else f"ok={result.ok} checked={result.checked}, want {want}"
    return Sample(kind, seconds, want, ok, note)


def cli_op(kind: str, digest: str, trace_path=None, op_id: int = 0) -> Sample:
    argv = kind.split()
    if trace_path is None:
        cmd = [sys.executable, "-m", "cliffork.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "launch.py"), str(trace_path), str(op_id), *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(kind, time.perf_counter() - t0, 1, False, "timed out")
    seconds = time.perf_counter() - t0
    got = hashlib.sha256(proc.stdout).hexdigest()
    ok = proc.returncode == 0 and got == digest
    note = "" if ok else f"exit {proc.returncode}, stdout sha256 {got[:12]}"
    return Sample(kind, seconds, 1, ok, note)


def run_passes(kinds, op, rng, seconds, min_passes, whole_passes, between=lambda: None):
    """Closed loop over shuffled passes until `seconds` have passed and at
    least `min_passes` passes are complete.  `between` runs before each
    operation, outside its timing."""
    samples, passes, t0 = [], 0, time.perf_counter()
    while True:
        for kind in rng.sample(kinds, len(kinds)):
            if passes >= min_passes and not whole_passes and time.perf_counter() - t0 >= seconds:
                return samples
            between()
            samples.append(op(kind))
        passes += 1
        if passes >= min_passes and time.perf_counter() - t0 >= seconds:
            return samples


def setup_time() -> float:
    """Seconds from starting a fresh interpreter until `import cliffork.cli` returns."""
    code = "import time, cliffork.cli; print(repr(time.time()))"
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, check=True, timeout=OP_TIMEOUT_S, text=True)
    return float(proc.stdout) - t0


class SetupSampler:
    """Takes setup samples spread evenly over a run, between operations, so
    the median does not hang on one moment of the host's speed."""

    def __init__(self, seconds):
        self.interval = seconds / SETUP_SAMPLES
        self.samples = [setup_time()]
        self.last = time.perf_counter()

    def __call__(self):
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.last >= self.interval:
            self.samples.append(setup_time())
            self.last = time.perf_counter()

    def finish(self) -> list:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_time())
        return self.samples


# ---------------------------------------------------------------------------
# statistics


def pass_percentile(per_kind: dict, level: float) -> float:
    """Nearest-rank percentile of one pass, every kind weighted equally."""
    xs = sorted(per_kind.values())
    return xs[max(0, math.ceil(level * len(xs)) - 1)]


def end_to_end(workload, samples, setup):
    by_kind = defaultdict(list)
    for s in samples:
        by_kind[s.kind].append(s.seconds)
    # A shared host can run 1.4-1.6x faster for seconds up to whole runs (as
    # a 2-core shared VM did), so medians and pooled percentiles follow how
    # much of a run fell in the fast state.  The slowest latency of a kind
    # tracks the sustained speed once the kind ran a few times; every
    # statistic below is built from it.  A kind that ran once or twice (a
    # sweep suite) keeps its median.
    sustained = {k: max(v) if len(v) >= SUSTAINED_MIN_SAMPLES else statistics.median(v)
                 for k, v in by_kind.items()}
    checks = {s.kind: s.checks for s in samples}
    checks_per_s = sum(checks.values()) / sum(sustained.values())
    latency = f"{len(samples)} operations of {len(sustained)} kinds at sustained latency"
    if workload == "cli":
        rusage = resource.RUSAGE_CHILDREN
        p50 = pass_percentile(sustained, 0.5)
        p50_note = f"p50 of a pass; {latency}"
    else:
        # A pass holds 3 or 4 suites, so its median is one particular suite
        # and moves with that suite's sensitivity to the host; the mean suite
        # latency is steadier.
        rusage = resource.RUSAGE_SELF
        p50 = statistics.mean(sustained.values())
        p50_note = f"mean suite latency of a pass; {latency}"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "checks_per_s": (checks_per_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (pass_percentile(sustained, TAIL_LEVEL) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup)} spread over the run",
             "checks_per_s": "checks of one pass / sum of the kinds' sustained latencies",
             "op_p50_ms": p50_note,
             "op_p90_ms": f"p{round(TAIL_LEVEL * 100)} of a pass; {latency}"}
    return metrics, notes, sustained


# ---------------------------------------------------------------------------
# per-layer metrics


_SWEEP_CLI = "checks_per_s on sweep, op_p90_ms on cli"
_ALGEBRA = "checks_per_s on algebra"

# Metric, what it should move, whether it goes into the result line.  The
# result line holds counts and the times that are nonzero on every workload;
# the rest are printed and written to bench/out, since a layer a workload
# never calls would put a constant 0 s into its result line.
LAYER_METRICS = (
    ("spinor_repr.matmul.calls", _SWEEP_CLI + "; none on algebra", True),
    ("spinor_repr.matmul.s", _SWEEP_CLI + "; none on algebra", True),
    ("spinor_repr.matmul.d4.us", _SWEEP_CLI, True),
    ("spinor_repr.matmul.d8.us", "checks_per_s on sweep", False),
    ("spinor_repr.matmul.d16.us", "op_p90_ms on cli", False),
    ("spinor_repr.matmul.d32.us", "op_p90_ms on cli", False),
    ("spinor_repr.eq.calls", "checks_per_s on sweep (relation checks), "
                             "op_p90_ms on cli (_match_signed)", True),
    ("spinor_repr.eq.s", "checks_per_s on sweep (relation checks), "
                         "op_p90_ms on cli (_match_signed)", True),
    ("spinor_repr.unary.calls", _SWEEP_CLI, True),
    ("spinor_repr.unary.s", _SWEEP_CLI, True),
    ("spinor_repr.build.s", "checks_per_s on sweep", True),
    ("spinor_repr.classify_matrix.calls", "checks_per_s on sweep", True),
    ("ext_automorphisms.ext_group_report.calls", _SWEEP_CLI, True),
    ("ext_automorphisms.ext_group_report.s", _SWEEP_CLI, False),
    ("ext_automorphisms.ext_group_report.self_s", _SWEEP_CLI, False),
    ("ext_automorphisms.ext_matrices.calls", _SWEEP_CLI, True),
    ("ext_automorphisms.ext_matrices.s", _SWEEP_CLI, True),
    ("ext_automorphisms.commutation_profile.s", _SWEEP_CLI, False),
    ("ext_automorphisms.census_useful_ratio", "checks_per_s on sweep", True),
    ("finite_groups.closure.calls", "op_p90_ms on cli; none on sweep", True),
    ("finite_groups.closure.s", "op_p90_ms on cli; none on sweep", False),
    ("finite_groups.identify.calls", "op_p90_ms on cli; none on sweep", True),
    ("finite_groups.identify.s", "op_p90_ms on cli; none on sweep", False),
    ("finite_groups.vee.s", _ALGEBRA, False),
    ("core_algebra.mv_mul.calls", _ALGEBRA, True),
    ("core_algebra.mv_mul.s", _ALGEBRA, False),
    ("core_algebra.mv_involutions.s", _ALGEBRA, False),
    ("core_algebra.blade_product.calls", _ALGEBRA, True),
    ("core_algebra.scalar_mul.calls", "checks_per_s on algebra and sweep", True),
    ("core_algebra.scalar_add.calls", "checks_per_s on algebra and sweep", True),
    ("quotient.epsilon_map.calls", _ALGEBRA, True),
    ("quotient.epsilon_map.s", _ALGEBRA, False),
    ("quotient.transfer_report.s", _ALGEBRA, False),
    ("quotient.quotient_group.s", _ALGEBRA, False),
    ("coverings.structure.s", "op_p50_ms on cli (small)", False),
    ("classification.build_table.s", "op_p50_ms on cli (small)", False),
    ("cli.run.self_s", "op_p90_ms on cli", False),
    *((f"cli.suite.{name}.s", f"checks_per_s on {workload}", False)
      for workload, suites in SUITES.items() for name, _, _ in suites),
    ("trace_overhead_ratio", "none; the cost of tracing", True),
)
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us": "us"}


def layer_unit(name: str) -> str:
    return _UNITS.get(name.rpartition(".")[2], "ratio")


def layer_value(name: str, summary: dict, passes: int, overhead: float) -> float:
    """A per-layer metric, per traced pass, from the merged tracer summary."""
    if name == "trace_overhead_ratio":
        return overhead
    if name == "ext_automorphisms.census_useful_ratio":
        attempts = summary["census_classify"]
        return summary["census_units"] / attempts if attempts else 0.0
    layer, _, what = name.rpartition(".")
    if what == "us":  # median microseconds per product at one dimension
        values = summary["matmul_us"].get(layer.rpartition(".d")[2])
        return statistics.median(values) if values else 0.0
    calls, total, self_time = summary["stats"].get(layer, (0, 0.0, 0.0))
    column = {"calls": calls + summary["counts"].get(layer, 0), "s": total,
              "self_s": self_time}
    return column[what] / passes


def self_time_shares(summary, passes, pass_seconds):
    """Each layer's self time per traced pass as a share of the traced pass time."""
    rows = [(layer, row[2] / passes) for layer, row in summary["stats"].items() if row[0]]
    rows.sort(key=lambda r: -r[1])
    other = pass_seconds - sum(t for _, t in rows)
    rows.append(("(untraced: interpreter start, import, harness, other code)", other))
    return [(layer, t, t / pass_seconds) for layer, t in rows]


# ---------------------------------------------------------------------------
# runs


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def make_op(workload, trace_dir=None, seed=0):
    """The operation function for a workload; traced when trace_dir is set."""
    if workload == "cli":
        digests = dict(CLI_OPS)
        op_ids = itertools.count(1)

        def op(kind):
            if trace_dir is None:
                return cli_op(kind, digests[kind])
            op_id = next(op_ids)
            path = trace_dir / f"spans-cli-seed{seed}-op{op_id}.jsonl"
            return cli_op(kind, digests[kind], path, op_id)
        return op, [k for k, _ in CLI_OPS]

    table = {name: (bound, want) for name, bound, want in SUITES[workload]}
    return (lambda kind: suite_op(kind, *table[kind])), list(table)


def measure(workload, seed, seconds):
    """The workload's operations, with setup samples taken between them."""
    op, kinds = make_op(workload)
    whole = workload == "cli"
    setup = SetupSampler(seconds)
    samples = run_passes(kinds, op, random.Random(seed), seconds,
                         CLI_MIN_PASSES if whole else 1, whole, setup)
    return samples, setup.finish()


def measure_traced(workload, seed, seconds):
    """Pairs of an untraced and a traced pass in the same shuffled order,
    untraced first in the first pair (so caches are warm and counts repeat)
    and alternating after that."""
    from tracer import Tracer, merge

    OUT.mkdir(exist_ok=True)
    rng = random.Random(seed)
    plain, _ = make_op(workload)
    traced, kinds = make_op(workload, OUT, seed)
    untraced, traced_samples, summaries = [], [], []

    def traced_pass(order):
        first = len(summaries) * len(kinds) + 1
        if workload == "cli":  # each process writes its own spans
            samples = [traced(k) for k in order]
            paths = [OUT / f"spans-cli-seed{seed}-op{i}.jsonl"
                     for i in range(first, first + len(kinds))]
            summaries.append(merge(json.loads(p.read_text().splitlines()[0])["summary"]
                                   for p in paths if p.exists()))
            return samples
        tracer = Tracer().install()
        samples = []
        try:
            for i, k in enumerate(order):
                tracer.op_id = first + i
                samples.append(traced(k))
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{workload}-seed{seed}-pass{len(summaries) + 1}.jsonl")
        summaries.append(tracer.summary())
        return samples

    t0 = time.perf_counter()
    while not summaries or time.perf_counter() - t0 < seconds:
        order = rng.sample(kinds, len(kinds))
        if len(summaries) % 2 == 0:
            untraced += [plain(k) for k in order]
            traced_samples += traced_pass(order)
        else:
            traced_samples += traced_pass(order)
            untraced += [plain(k) for k in order]
    plain_s = sum(s.seconds for s in untraced)
    traced_s = sum(s.seconds for s in traced_samples)
    return untraced, traced_samples, merge(summaries), len(summaries), plain_s, traced_s


def gate_headroom(samples):
    """Median elapsed / limit of acceptance criteria 8-10, from untraced suite calls."""
    by_kind = defaultdict(list)
    for s in samples:
        if s.kind in ALGEBRA_GATE_S:
            by_kind[s.kind].append(s.seconds)
    return {k: statistics.median(v) / ALGEBRA_GATE_S[k] for k, v in sorted(by_kind.items())}


def run_gate() -> int:
    """One shot: the four sweep suites at the gate's own bound (p+q <= 8)."""
    from cliffork import cli

    ok = True
    for name, _, _ in SUITES["sweep"]:
        result = cli.run_suite(name)
        ok = ok and result.ok
        print(f"{name}: {'ok' if result.ok else 'FAILED'}, {result.checked} checks, "
              f"{result.elapsed:.2f} s of {SWEEP_GATE_S[name]:.0f} s "
              f"(elapsed / limit {result.elapsed / SWEEP_GATE_S[name]:.3f}) [{result.detail}]",
              flush=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep", "algebra", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", action="store_true",
                    help="run the sweep suites once at p+q <= 8 against their gate limits")
    args = ap.parse_args()
    if not (SRC / "cliffork" / "cli.py").is_file():
        print(f"error: no cliffork sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not args.gate and args.workload is None:
        ap.error("--workload is required")
    os.environ.pop("CLIFFORK_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.gate:
        return run_gate()

    stamp = machine()
    print(f"# cliffork benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    # one untimed invocation fills __pycache__ before anything is timed
    warm = cli_op(*CLI_OPS[0])
    if not warm.ok:
        print(f"error: warm-up invocation failed: {warm.note}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": stamp}
    lines, metrics = [], {}
    if args.trace:
        untraced, traced, summary, passes, plain_s, traced_s = measure_traced(
            args.workload, args.seed, args.seconds)
        samples = untraced + traced
        overhead = traced_s / plain_s
        pass_s = traced_s / passes
        table = []
        for name, moves, in_result in LAYER_METRICS:
            value, unit = layer_value(name, summary, passes, overhead), layer_unit(name)
            table.append({"name": name, "value": value, "unit": unit, "should_move": moves})
            lines.append(f"{name} {value:.6g} {unit}  (should move: {moves})")
            if in_result:
                metrics[name] = (value, unit)
        shares = self_time_shares(summary, passes, pass_s)
        lines.append(f"# self time per traced pass, base {pass_s:.3f} s "
                     f"(mean of {passes} traced passes; untraced pass {plain_s / passes:.3f} s)")
        lines += [f"#   {share:7.2%} {t:9.4f} s  {layer}" for layer, t, share in shares]
        record.update(layer_metrics=table, traced_passes=passes,
                      traced_pass_s=pass_s, untraced_pass_s=plain_s / passes,
                      self_time_shares=[{"layer": l, "s": t, "share": sh} for l, t, sh in shares])
    else:
        samples, setup = measure(args.workload, args.seed, args.seconds)
        untraced = samples
        metrics, notes, per_kind = end_to_end(args.workload, samples, setup)
        for name, (value, unit) in metrics.items():
            extra = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name} {value:.6g} {unit}{extra}")
        record.update(setup_s_samples=setup,
                      sustained_latency_s=dict(sorted(per_kind.items())))
    failed = [s for s in samples if not s.ok]
    lines.append(f"failed_ratio {len(failed) / len(samples):.6g} ratio "
                 f"({len(failed)} of {len(samples)} operations)")
    headroom = gate_headroom(untraced)
    if headroom:
        lines.append("# gate headroom, elapsed / limit (information only): " + ", ".join(
            f"{k} {v:.3f} of {ALGEBRA_GATE_S[k]:.0f} s" for k, v in headroom.items()))
    for s in failed[:20]:
        lines.append(f"# FAILED {s.kind}: {s.note}")
    stamp["loadavg_end"] = loadavg()
    lines.append("# machine: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print("\n".join(lines))

    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, gate_headroom=headroom,
                  operations=[s._asdict() for s in samples])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
