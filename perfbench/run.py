"""Benchmark of radwig: four closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src`` and the CLI ops run as ``python -m radwig.cli`` with
``PYTHONPATH=src``.  BLAS is pinned to one thread for this process and
its children, so the figures measure the program, not the scheduler.

Each run repeats the workload's fixed op list (a pass) until the ops
have been busy for about ``--seconds`` (whole passes, the count nearest
to it) and at least ``min_passes`` passes are done. Every op is timed
between two bursts of a fixed calibration kernel (``calibrate.py``), and
its latency is scaled to the kernel's reference speed; every time metric
is in these scaled seconds, and the raw ones are printed beside them.
Every op output is checked against an oracle after its timer stops; a
miss, an exception or a non-zero exit counts as a failed op, whose time
still counts. With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes, and the
last line carries the per-layer metrics and the tracing overhead. The
lines before it give the op-tail percentile and sample count, the failed
ratio, every failure, per-op medians, output digests and the
environment.

``--self-check`` runs every workload at toy sizes in both modes and
validates the output schema against BENCHMARK.json; it asserts nothing
about timings.
"""

import time

START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import calibrate  # noqa: E402  (imports numpy: after the pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-io", "phase-space", "fock-pipeline", "check")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10              # samples the tail percentile leaves above it
MIN_PASSES = 2                # more for CLI ops and short op lists: see min_passes
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = ("import time; t = time.perf_counter(); import radwig.cli; "
                "print(time.perf_counter() - t)")
# the registry at the time the benchmark was defined; a name that leaves
# the registry reports 0
INVARIANTS = (
    "laguerre-recurrence", "laguerre-derivative", "schwinger-orthonormality",
    "weyl-commutator", "dilation-commutator", "vacuum-annihilation",
    "exponentiated-dilation", "displacement-r-adjoint",
    "displacement-pr-adjoint", "displacement-composition", "pr-self-adjoint",
    "displacement-trace-kernel", "wigner-cross-route", "wigner-normalization",
    "wigner-marginal", "wigner-bound", "wigner-negativity",
    "husimi-nonnegativity")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Record:
    """One executed op: its latency and what its oracle found."""
    op: str
    seconds: float
    error: str | None = None
    misses: list = field(default_factory=list)    # (label, measured, tol)
    digests: dict = field(default_factory=dict)
    speed: float = 1.0            # host speed around the op, 1 = reference

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.misses)

    @property
    def scaled_s(self) -> float:
        """Latency at the reference host speed."""
        return self.seconds * self.speed


def run_op(op, before, tracer=None, sample=False) -> tuple:
    """Times one op between two calibration bursts, then checks its output.
    ``before`` is the burst that preceded it; returns the record and the
    burst that followed it.  With ``sample``, bursts are also taken while
    the op runs, and their time is taken off its latency."""
    if tracer is not None:
        tracer.op = op.name
    error = out = None
    samples = calibrate.InOpSamples() if sample else None
    start = time.perf_counter()
    try:
        with samples or nullcontext(), \
                tracer.span("op") if tracer is not None else nullcontext():
            out = op.run()
    except Exception as exc:      # a failing op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    inside = []
    if samples is not None:
        seconds -= samples.spent
        inside = samples.bursts
    record = Record(op.name, seconds, error)
    after = calibrate.burst()
    record.speed = calibrate.REF_BURST_S / statistics.mean([before, after, *inside])
    if error is None:
        try:
            checks, record.digests = op.verify(out)
        except Exception as exc:  # an unreadable output misses its oracle
            record.error = f"oracle: {type(exc).__name__}: {exc}"
        else:
            record.misses = [c for c in checks if not c[1] <= c[2]]
    return record, after


def run_passes(workload, seconds, min_passes, tracer=None, busy=0.0):
    """At least ``min_passes`` whole passes, then more while another one is
    expected to end nearer to ``seconds`` of busy op time than stopping.
    Untraced in-process ops are sampled for host speed while they run; a
    CLI op is not, as its child would compete with the samples for the
    memory system and couple them to what the child does."""
    passes = []
    sample = tracer is None and not workload.uses_children
    burst = calibrate.burst()
    while len(passes) < min_passes or busy + busy / (2 * len(passes)) < seconds:
        records = []
        for op in workload.ops:
            record, burst = run_op(op, burst, tracer, sample)
            records.append(record)
        busy += sum(r.seconds for r in records)
        passes.append(records)
    return passes


def min_passes(workload) -> int:
    """MIN_PASSES; one more for ops in child processes, whose host speed is
    taken only at their two ends; more if a pass has too few ops for a tail
    percentile with TAIL_BEYOND samples above it."""
    base = MIN_PASSES + 1 if workload.uses_children else MIN_PASSES
    return max(base, math.ceil((TAIL_BEYOND + 1) / len(workload.ops)))


def quantile(latencies, level) -> float:
    """Harrell-Davis estimate of the ``level`` quantile: a Beta-weighted
    mean of all order statistics.  With a few ops per pass, one order
    statistic reads one sample of one op, or falls in the gap between two
    ops' clusters; this estimate moves much less from run to run."""
    from scipy.special import betainc
    x = sorted(latencies)
    n = len(x)
    cdf = betainc(level * (n + 1), (1.0 - level) * (n + 1),
                  [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x)))


def tail(latencies, n_ref):
    """Latency at the highest percentile leaving TAIL_BEYOND of ``n_ref``
    samples above it; the level is fixed by ``n_ref`` so that runs with
    more passes measure the same percentile."""
    level = 1.0 - TAIL_BEYOND / n_ref
    n = len(latencies)
    return quantile(latencies, level), {"percentile": 100.0 * level, "n": n,
                                        "beyond": n - math.ceil(level * n)}


def child_lines(argv) -> list:
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.strip().splitlines()


def median_child_seconds(argv, samples) -> float:
    return statistics.median(float(child_lines(argv)[-1]) for _ in range(samples))


def summarize_failures(records, workload) -> tuple:
    """Per-op failure summary, and whether every failure is a known defect."""
    summary, correct = {}, True
    for r in records:
        if not r.failed:
            continue
        entry = summary.setdefault(r.op, {"count": 0, "errors": [], "worst": {}})
        entry["count"] += 1
        if r.error and r.error not in entry["errors"]:
            entry["errors"].append(r.error)
        for label, measured, tol in r.misses:
            worst = entry["worst"].get(label)
            if worst is None or measured > worst["measured"]:
                entry["worst"][label] = {"measured": measured, "tolerance": tol}
        known = workload.expected_failures.get(r.op)
        if known is None or r.error or any(m > known[1] for _, m, _ in r.misses):
            correct = False
        else:
            entry["expected_at_seed"] = known[0]
    return summary, correct


def environment(args) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = child_lines(["git", "-C", str(ROOT), "rev-parse", "HEAD"])[0]
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "git_commit": commit,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "toy": args.toy,
    }


def per_op(passes) -> dict:
    out = {}
    for records in passes:
        for r in records:
            out.setdefault(r.op, []).append(r)
    return {op: {"n": len(v), "median_s": statistics.median(r.seconds for r in v),
                 "median_scaled_s": statistics.median(r.scaled_s for r in v),
                 "scaled_s": [round(r.scaled_s, 6) for r in v],
                 "speed": [round(r.speed, 4) for r in v]}
            for op, v in out.items()}


def list_s(passes, key="median_scaled_s") -> float:
    """Time for the op list: the sum over ops of each op's median latency,
    so that one slow sample of an op does not move it."""
    return sum(v[key] for v in per_op(passes).values())


def setup_samples(args, setup_s, speed) -> list:
    """(raw, scaled) set-up times: this process's, then those of fresh
    ``--setup-only`` processes, each between two calibration bursts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    samples = [(setup_s, setup_s * speed)]
    before = calibrate.burst()
    for _ in range(SETUP_SAMPLES - 1):
        seconds = float(child_lines(cmd)[-1])
        after = calibrate.burst()
        samples.append((seconds, seconds * calibrate.REF_BURST_S / (0.5 * (before + after))))
        before = after
    return samples


def measure(args, workload, setup_s, setup_speed) -> tuple:
    """Returns (metrics, attempted records, detail)."""
    n_min = min_passes(workload)
    detail = {}
    if not args.trace:
        passes = run_passes(workload, args.seconds, n_min)
        usage = resource.RUSAGE_CHILDREN if workload.uses_children else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        raw_setups, setups = zip(*setup_samples(args, setup_s, setup_speed))
        latencies = [r.scaled_s for p in passes for r in p]
        raw_latencies = [r.seconds for p in passes for r in p]
        n_ref = n_min * len(workload.ops)
        tail_s, detail["op_tail"] = tail(latencies, n_ref)
        detail["raw_s"] = {"setup_s": statistics.median(raw_setups),
                           "wall_s": list_s(passes, "median_s"),
                           "op_p50_s": quantile(raw_latencies, 0.5),
                           "op_tail_s": tail(raw_latencies, n_ref)[0]}
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": list_s(passes),
            "op_p50_s": quantile(latencies, 0.5),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_mb,
        }
        detail["samples"] = {"setup_s": len(setups), "wall_s": len(passes),
                             "op_p50_s": len(latencies), "op_tail_s": len(latencies)}
        detail["peak_rss_of"] = "children" if workload.uses_children else "self"
        measured = passes
    else:
        import spans
        untraced = run_passes(workload, 0, 1)
        plain_wall = list_s(untraced)
        tracer = spans.Tracer()
        spans.install(tracer, callers=[sys.modules["workloads"]])
        passes = run_passes(workload, args.seconds, 1, tracer, busy=plain_wall)
        traced_wall = list_s(passes)
        metrics = {"import.radwig_cli_s": median_child_seconds(
            [sys.executable, "-c", IMPORT_PROBE], IMPORT_SAMPLES)}
        metrics.update(spans.layer_values(tracer, len(passes)))
        op_s = per_op(passes)
        for name in INVARIANTS:
            metrics[f"checks.{name}.s"] = op_s.get(name, {}).get("median_s", 0.0)
        metrics["bench.tracing_overhead"] = traced_wall / plain_wall - 1.0
        detail["tracing"] = {"untraced_list_scaled_s": plain_wall,
                             "traced_list_scaled_s": traced_wall,
                             "traced_passes": len(passes)}
        detail["self_s_by_op"] = {
            op: {k: v / len(passes) for k, v in sorted(
                layers.items(), key=lambda kv: -kv[1])[:6]}
            for op, layers in tracer.per_op_self_s().items()}
        measured = untraced + passes
    detail["passes"] = len(measured)
    detail["ops_per_pass"] = len(workload.ops)
    detail["per_op"] = per_op(measured)
    detail["digests"] = {r.op: r.digests for r in measured[-1]}
    return metrics, [r for p in measured for r in p], detail


def units(trace_mode) -> dict:
    if not trace_mode:
        return END_TO_END
    import spans
    out = {"import.radwig_cli_s": "s", **spans.layer_names()}
    out.update({f"checks.{name}.s": "s" for name in INVARIANTS})
    out["bench.tracing_overhead"] = "1"
    return out


def report(args, workload, metrics, records, detail) -> dict:
    failures, correct = summarize_failures(records, workload)
    failed = sum(r.failed for r in records)
    unit = units(args.trace)
    mode = "traced" if args.trace else "end-to-end"
    print(f"# perfbench {workload.name} seed={args.seed} ({workload.seed_note}); "
          f"{mode}; closed loop, one client; {detail['passes']} passes x "
          f"{detail['ops_per_pass']} ops")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_s":
            t = detail["op_tail"]
            note = (f"  p{t['percentile']:.1f} of n={t['n']} ({t['beyond']} beyond),"
                    " Harrell-Davis")
        elif name == "wall_s":
            note = f"  sum of per-op medians over {detail['samples'][name]} passes"
        elif name == "op_p50_s":
            note = f"  median of n={detail['samples'][name]}, Harrell-Davis"
        elif name in detail.get("samples", {}):
            note = f"  median of n={detail['samples'][name]}"
        if name in detail.get("raw_s", {}):
            note += f"; raw {detail['raw_s'][name]:.6g} s"
        print(f"#   {name:<40} {value:.6g} {unit[name]}{note}")
    print(f"#   {'failed_ratio':<40} {failed / len(records):.6g} 1  "
          f"({failed} of {len(records)} ops)")
    for op, entry in failures.items():
        print(f"#   FAILED {op}, {entry['count']} times: "
              f"{entry.get('expected_at_seed', 'unexpected')}; "
              f"worst {entry['worst'] or entry['errors']}")
    detail.update(failures=failures, failed_ratio=failed / len(records),
                  env=environment(args))
    print("# detail " + json.dumps(detail, sort_keys=True))
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}


def run(args, work) -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import radwig
    import workloads
    if SRC not in Path(radwig.__file__).resolve().parents:
        print(f"error: radwig imported from {radwig.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.BUILDERS[args.workload](
        args.seed, str(work), args.toy, in_process=bool(args.trace))
    workload.warmup.run()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    calibrate.burst()             # warm the calibration kernel once
    setup_speed = calibrate.REF_BURST_S / calibrate.burst()
    metrics, records, detail = measure(args, workload, setup_s, setup_speed)
    print(json.dumps(report(args, workload, metrics, records, detail)))
    return 0


# -- self-check ----------------------------------------------------------------

def schema_problems(label, proc, expected) -> list:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"{label}: last line is not JSON ({exc})"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append(f"{label}: correct is not a bool")
    att, fail = result["attempted"], result["failed"]
    if not (type(att) is int and type(fail) is int and att >= 1 and 0 <= fail <= att):
        problems.append(f"{label}: attempted={att!r} failed={fail!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or entry["unit"] != expected.get(name, entry["unit"])):
            problems.append(f"{label}: bad metric {name}: {entry}")
    return problems


def self_check(work) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        produced = units(key == "per_layer")
        if declared != produced:
            problems.append(f"BENCHMARK.json {key} differs from the harness: "
                            f"{sorted(set(declared.items()) ^ set(produced.items()))}")
    for name in WORKLOADS:
        for trace_mode, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace_mode),
                 "--toy"], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            problems += schema_problems(f"{name} trace={trace_mode}", proc,
                                        {m["name"]: m["unit"] for m in spec[key]})
    # without the sources next to it the benchmark must refuse to run
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("runs without src/: exit 0 or printed a result")
    for line in problems:
        print(f"self-check: {line}", file=sys.stderr)
    print(f"self-check: {'FAIL' if problems else 'ok'} "
          f"({len(WORKLOADS)} workloads x 2 modes, toy sizes)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the self-check")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check:
        if args.workload is None:
            parser.error("--workload is required")
        if not (SRC / "radwig" / "__init__.py").is_file():
            print(f"error: no radwig sources at {SRC}; run from a source checkout",
                  file=sys.stderr)
            return 2
    # a terminated run unwinds: children are killed, scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return self_check(work) if args.self_check else run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
