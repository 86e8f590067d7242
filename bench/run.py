"""Benchmark of the mcmullen CLI and library.

Run from the root of a checkout:

    python3 bench/run.py --workload render-wide --seed 1 --seconds 30 --trace 0

`bench/spread.py` runs it over many seeds and prints each metric's spread;
`bench/selfcheck.py` checks the harness itself at tiny sizes.

The program is imported from `src/` of the checkout. With `--trace 0` one
client drives the workload's fixed op list through `mcmullen.cli.main` in a
closed loop (each op starts when the previous one has ended), pass after pass,
until `--seconds` of measured time have gone by; it prints the end-to-end
metrics. With `--trace 1` it makes a separate traced run of every workload
(see tracing.py) and prints the per-layer metrics, named
`<workload>.<layer>.<metric>`. Every output of every op goes through the
correctness gate (gate.py). The human-readable report comes first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A full record (environment, sha256 of
every output, per-op latencies, spans) is written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import mcmullen.cli; "
    "dt = time.perf_counter() - t; import mcmullen; print(dt, mcmullen.__file__)"
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------- statistics

def spread(values: list[float]) -> str:
    """Median and quartiles with the sample count."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th quantile (0 < p < 1): the mean of all
    order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.

    Like ops form clusters of latencies, and a median or percentile that falls
    at the edge of a cluster jumps when a few ops run in a fast or slow spell of
    a shared machine; weighting many order statistics damps that jump
    (Harrell and Davis, Biometrika 69, 1982). The Beta CDF is integrated
    numerically on a fine grid, which is exact to about 1e-7 here."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (np.where(a == 1.0, 0.0, (a - 1.0) * np.log(t))
                   + np.where(b == 1.0, 0.0, (b - 1.0) * np.log1p(-t)))
    pdf = np.exp(log_pdf - np.max(log_pdf))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it): the highest ladder percentile with at
    least ten of n samples beyond it, else the median."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            break
    return p, n - int(n * p / 100.0)


# --------------------------------------------------------------- environment

def _cache_sizes() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly (never above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "mcmullen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------------- setup

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(runs: int) -> list[float]:
    """Seconds a fresh interpreter takes to import mcmullen.cli, once per run."""
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, where = proc.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"fresh interpreter imported mcmullen from {where.strip()}")
        times.append(float(seconds))
    return times


def measure_importtime(runs: int) -> dict[str, float]:
    """Median cumulative import seconds of mcmullen.cli, numpy and scipy.spatial
    from `python -X importtime` in fresh interpreters (0 if not imported)."""
    names = {"mcmullen.cli": "setup.import_s", "numpy": "setup.import_numpy_s",
             "scipy.spatial": "setup.import_scipy_spatial_s"}
    samples: dict[str, list[float]] = {m: [] for m in names.values()}
    line_re = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mcmullen.cli"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            m = line_re.match(line)
            if m and m.group(2) in names and m.group(2) not in found:
                found[m.group(2)] = int(m.group(1)) * 1e-6
        for module, metric in names.items():
            samples[metric].append(found.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


# ------------------------------------------------------------------ op calls

def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """(exit code or None if it raised, captured stderr and traceback)."""
    from mcmullen.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # an op that crashes is a failed op, not a crashed benchmark
        return None, err.getvalue() + traceback.format_exc()
    return rc, err.getvalue()


def read_output(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


class Ledger:
    """Attempted and failed ops, and the sha256 and latencies of every output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.records: dict[str, dict] = {}
        self.unstable: list[str] = []  # rounding-sensitive pixels, see gate.py

    def note_unstable(self, notes: list[str]) -> None:
        if notes:
            print(f"  {len(notes)} sampled pixel(s) differ from classify_pixel where "
                  f"classify_pixel itself changes one ulp away (listed, not failed):")
        for note in notes:
            print(f"    {note}")
        self.unstable += notes

    def add(self, key: str, argv: list[str], rc, sha: str, problems: list[str],
            latency: float | None = None) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        rec = self.records.setdefault(key, {"argv": argv, "rc": [], "sha256": [],
                                            "latency_s": [], "problems": []})
        rec["rc"].append(rc)
        rec["sha256"].append(sha)
        if latency is not None:
            rec["latency_s"].append(latency)
        rec["problems"] += problems
        for p in problems:
            print(f"  FAIL {key}: {p}")


def run_pass(ops, pass_index: int, work: Path, gate, ledger: Ledger, prefix: str = ""):
    """One closed-loop pass through the CLI: (pass wall seconds, per-op latencies,
    per-op output bytes). Outputs are removed before and checked after the pass."""
    from workloads import for_pass

    pass_ops = [for_pass(op, pass_index) for op in ops]
    outs = [work / f"{op.op_id}.{op.suffix}" for op in pass_ops]
    argvs = [op.argv(str(out)) for op, out in zip(pass_ops, outs)]
    for out in outs:
        out.unlink(missing_ok=True)
    latencies, codes = [], []
    start = time.perf_counter()
    for argv in argvs:
        t0 = time.perf_counter()
        codes.append(call_cli(argv))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    datas = []
    for op, out, argv, (rc, err), latency in zip(pass_ops, outs, argvs, codes, latencies):
        data = read_output(out)
        sha, problems = gate.check(op, argv, rc, data)
        if rc is None:
            problems.append(f"raised: {err.strip().splitlines()[-1]}")
        ledger.add(prefix + op.op_id, argv, rc, sha, problems, latency)
        datas.append(data)
    return wall, latencies, datas


# ----------------------------------------------------------------- timed run

def timed_run(name: str, seed: int, seconds: float, tiny: bool, work: Path) -> tuple[dict, Ledger]:
    from gate import Gate
    from workloads import RenderOp, build

    ops = build(name, seed, tiny)
    gate, ledger = Gate(seed), Ledger()
    # Set-up samples are taken between passes, so that they see the same mix of
    # the shared machine's fast and slow spells as the passes do.
    setup_runs = 1 if tiny else SETUP_RUNS
    setup, walls, latencies = [], [], []
    while not walls or sum(walls) < seconds:
        if len(setup) < setup_runs - 1:
            setup += measure_setup(1)
        wall, lat, _ = run_pass(ops, len(walls), work, gate, ledger)
        walls.append(wall)
        latencies += lat
    setup += measure_setup(setup_runs - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.note_unstable(gate.unstable)

    p, beyond = tail_percentile(len(latencies))
    pixels = sum(op.pixels for op in ops if isinstance(op, RenderOp))
    mpix = [pixels / w / 1e6 for w in walls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # Measured time over passes: the speed of a shared machine switches
        # between spells, and a median of a few passes jumps with them.
        "wall_s": (sum(walls) / len(walls), "s"),
        "op_p50_s": (harrell_davis(latencies, 0.5), "s"),
        "op_tail_s": (harrell_davis(latencies, p / 100.0), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"workload {name}: closed loop, 1 client, default single thread; "
          f"{len(walls)} passes of {len(ops)} ops in {sum(walls):.2f} s measured")
    print(f"  setup_s      {metrics['setup_s'][0]:.6f} s    import of mcmullen.cli in a fresh "
          f"interpreter, sampled between passes; {spread(setup)}")
    print(f"  wall_s       {metrics['wall_s'][0]:.6f} s    one pass of the op list, measured time "
          f"over passes; per pass {spread(walls)}")
    if pixels:
        print(f"  mpix_per_s   {pixels * len(walls) / sum(walls) / 1e6:.6f} Mpix/s    "
              f"{pixels / 1e6:.3f} Mpix rendered, encoded and written per pass; per pass "
              f"{spread(mpix)}")
    print(f"  op_p50_s     {metrics['op_p50_s'][0]:.6f} s    Harrell-Davis median of the op "
          f"latencies; {spread(latencies)}")
    print(f"  op_tail_s    {metrics['op_tail_s'][0]:.6f} s    Harrell-Davis p{p:g} of n="
          f"{len(latencies)} ops, {beyond} beyond it")
    print(f"  peak_rss_mb  {rss_mb:.3f} MB    peak resident memory of this process, n=1")
    print(f"  fail_ratio   {ledger.failed / ledger.attempted:.6f}    "
          f"{ledger.failed} of {ledger.attempted} ops failed the correctness gate")
    for key, rec in ledger.records.items():
        print(f"  op {key:<14} rc {rec['rc'][0]}  median {statistics.median(rec['latency_s']):.4f} s"
              f"  sha256 {rec['sha256'][0]}")
    return metrics, ledger


# ---------------------------------------------------------------- traced run

def _layer_metrics(workload: str, ops, traces, tracer, untraced: list[float],
                   kernel, mismatch: tuple[int, int], env_caches: list[str]) -> dict:
    """Per-layer metrics of one workload's traced pass, printed and returned."""
    from tracing import BYTES_PER_STEP
    from workloads import RenderOp

    spans = tracer.spans
    own = tracer.self_times()

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    roots = [i for i, s in enumerate(spans) if s.name == "cli.op"]
    # Untraced CLI latency minus the library spans of the same op: argument
    # parsing, routing and whatever else the CLI does around the library calls.
    overhead = sum(latency - sum(s.end - s.start for s in spans if s.parent == r)
                   for latency, r in zip(untraced, roots))
    trace_overhead = sum(own[r] for r in roots)

    m = {
        "cli.write_s": (total("cli.write"), "s"),
        "cli.bytes_written": (sum(len(t.data) for t in traces), "B"),
        "cli.overhead_s": (overhead, "s"),
        "family.kernel_s": (kernel.seconds, "s"),
        "family.orbit_steps": (kernel.steps, "count"),
        "family.msteps_per_s": (kernel.steps / kernel.seconds / 1e6 if kernel.seconds else 0.0,
                                "Msteps/s"),
        "family.bytes_moved_computed": (kernel.steps * BYTES_PER_STEP, "B"),
    }
    render_ops = [op for op in ops if isinstance(op, RenderOp)]
    if render_ops:
        slice_s = total("render.render_slice")
        m.update({
            # On certify every probed orbit escapes while spine-locus passes.
            "family.bounded_orbits": (kernel.bounded, "count"),
            "render.render_slice_s": (slice_s, "s"),
            "render.encode_ppm_s": (total("render.encode_ppm"), "s"),
            "render.pixels": (sum(op.pixels for op in render_ops), "count"),
            "render.non_kernel_s": (slice_s - kernel.seconds, "s"),
            "render.bounded_mismatch": (mismatch[0], "count"),
        })
    else:
        reports = [r for t in traces if t.reports for r in t.reports]
        residuals = [x for t in traces if t.residuals for x in t.residuals]
        m.update({
            "solvers.fixed_c_s": (total("solvers.fixed_c"), "s"),
            "solvers.diagonal_s": (total("solvers.diagonal"), "s"),
            "solvers.degree_max": (max(t.degree for t in traces), "count"),
            "solvers.max_residual": (max(residuals), "1"),
            "spine.distances_s": (total("spine.distances"), "s"),
            "spine.points_queried": (sum(t.spine_points for t in traces), "count"),
            "verify.spine_locus_s": (total("verify.spine_locus"), "s"),
            "verify.winding_s": (total("verify.winding"), "s"),
            "verify.containment_s": (total("verify.containment"), "s"),
            "verify.annulus_s": (total("verify.annulus"), "s"),
            "verify.samples": (sum(r.samples for r in reports), "count"),
            "verify.failures": (sum(r.failures for r in reports), "count"),
        })

    untraced_wall = sum(untraced)
    print(f"workload {workload}: {len(ops)} ops, each run untraced ({untraced_wall:.4f} s in all) "
          f"and then traced")
    by_name: dict[str, list[float]] = {}
    for s, s_own in zip(spans, own):
        row = by_name.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += s_own
    print(f"  {'span':<22}{'count':>6}{'total_s':>12}{'self_s':>12}")
    for name, (count, tot, slf) in sorted(by_name.items()):
        print(f"  {name:<22}{count:>6}{tot:>12.6f}{slf:>12.6f}")
    print(f"  tracing overhead {trace_overhead:.6f} s = "
          f"{100 * trace_overhead / untraced_wall:.4f}% of the untraced wall_s {untraced_wall:.4f} s")
    if kernel.orbits:
        arrays = kernel.largest_call * (3 * 16 + 8)
        print(f"  family.bytes_moved_computed = orbit_steps x {BYTES_PER_STEP} B (computed from "
              f"array sizes, not measured); largest kernel call {kernel.largest_call} elements, "
              f"inputs a, c, z, thr = {arrays / 1024:.1f} KiB; caches {', '.join(env_caches)}")
    if render_ops:
        print(f"  render.bounded_mismatch {mismatch[0]} of {mismatch[1]} sampled pixels "
              f"(known shading defect; a count, not an op failure)")
        share = m["render.non_kernel_s"][0] / slice_s
        kshare = kernel.seconds / slice_s
        print(f"  design: family.kernel_s is {100 * kshare:.1f}% and render.non_kernel_s "
              f"{100 * share:.1f}% of render.render_slice_s")
    else:
        solver = total("solvers.fixed_c") + total("solvers.diagonal")
        ops_total = total("cli.op")
        print(f"  design: {sum(1 for s in spans if s.name.startswith('render.'))} render spans; "
              f"solvers take {100 * solver / ops_total:.1f}% of the traced op time")
    for name, (value, unit) in m.items():
        print(f"  {workload}.{name:<28} {value:.6g} {unit}")
    return {f"{workload}.{k}": v for k, v in m.items()}


def traced_run(seed: int, seconds: float, tiny: bool, work: Path, env: dict) -> tuple[dict, Ledger, list]:
    importtime = measure_importtime(1 if tiny else IMPORTTIME_RUNS)
    print("setup: python -X importtime, median of fresh interpreters")
    for name, value in importtime.items():
        print(f"  {name:<32} {value:.6f} s")
    ledger = Ledger()
    passes, spans = [], []
    elapsed_start = time.perf_counter()
    while not passes or time.perf_counter() - elapsed_start < seconds:
        metrics = {k: (v, "s") for k, v in importtime.items()}
        failed_before, report = ledger.failed, io.StringIO()
        with contextlib.redirect_stdout(report):
            metrics.update(_traced_pass(seed, tiny, work, env, ledger, len(passes), spans))
        passes.append(metrics)
        if ledger.failed > failed_before:
            print(report.getvalue(), end="")
    if ledger.failed == failed_before:
        print(report.getvalue(), end="")
    print(f"traced run: {len(passes)} pass(es); per-layer values are medians over passes, "
          f"the tables above show the last pass")
    merged = {k: (statistics.median(p[k][0] for p in passes), passes[0][k][1]) for k in passes[0]}
    return merged, ledger, spans


def _traced_pass(seed: int, tiny: bool, work: Path, env: dict, ledger: Ledger,
                 pass_index: int, spans: list) -> dict:
    """Every op of every workload run untraced and then traced; per-layer metrics."""
    from gate import Gate, bounded_mismatch
    from tracing import KernelProbe, Tracer, run_traced
    from workloads import WORKLOADS, RenderOp, build, for_pass

    metrics = {}
    for workload in WORKLOADS:
        ops = build(workload, seed, tiny)
        gate = Gate(seed)
        tracer, kernel, traces, mismatch = Tracer(), KernelProbe(), [], [0, 0]
        untraced, same = [], 0
        # Each op runs untraced through the CLI and then traced, back to back, so
        # that a slow spell of the machine falls on both runs of the op alike.
        for op in ops:
            _, (latency,), (cli_data,) = run_pass([op], 2 * pass_index, work, gate, ledger,
                                                  prefix=f"{workload}/")
            untraced.append(latency)
            op = for_pass(op, 2 * pass_index + 1)
            tracer.op_id = f"{workload}/{op.op_id}"
            t = run_traced(op, tracer, work / f"traced-{op.op_id}.{op.suffix}", kernel)
            traces.append(t)
            same += t.data == cli_data
            if isinstance(op, RenderOp):
                k, s = bounded_mismatch(op, t.data, seed)
                mismatch[0] += k
                mismatch[1] += s
        ledger.note_unstable(gate.unstable)
        metrics.update(_layer_metrics(workload, ops, traces, tracer, untraced, kernel,
                                      tuple(mismatch), env["caches"]))
        spans += tracer.spans
        print(f"  traced library path reproduced the CLI output bytes on {same} of {len(ops)} ops")
    return metrics


# ---------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (harness self-check)")
    args = parser.parse_args(argv)

    if not (SRC / "mcmullen" / "cli.py").is_file():
        print(f"bench: no mcmullen sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import mcmullen

    if not Path(mcmullen.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported mcmullen from {mcmullen.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, ledger, spans = traced_run(args.seed, args.seconds, args.tiny, work, env)
        else:
            metrics, ledger = timed_run(args.workload, args.seed, args.seconds, args.tiny, work)
            spans = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": ledger.attempted, "failed": ledger.failed, "ops": ledger.records,
        "unstable_pixels": ledger.unstable,
        "spans": [vars(s) for s in spans],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(f"record written to {OUT / name}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
