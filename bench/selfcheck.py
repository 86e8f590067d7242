"""Self-check of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 bench/selfcheck.py

It checks that:
- every metric named in BENCHMARK.json is printed with its unit, in the
  report and in the last-line JSON, for the timed runs and the traced run;
- the correctness gate catches corrupted outputs (negative controls): one
  flipped pixel, a changed PPM header, a wrong CSV field, a wrong exit code;
- without the program's sources the benchmark exits non-zero and prints no
  result.
Exits 0 when every check passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def run_bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_printed(proc: subprocess.CompletedProcess, wanted: list[dict], what: str) -> None:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{what}: exit code 0 (got {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{what}: last line is JSON")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys are correct, attempted, failed, metrics")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: correct with {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in wanted),
           f"{what}: JSON metrics are exactly the {len(wanted)} named in BENCHMARK.json")
    report = [line.strip() for line in lines[:-1]]
    missing = []
    for m in wanted:
        got = metrics.get(m["name"], {})
        in_json = got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
        printed = any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                      for line in report)
        if not (in_json and printed):
            missing.append(m["name"])
    expect(not missing, f"{what}: every metric printed with its unit in the report and the JSON"
           + (f" (missing: {', '.join(missing)})" if missing else ""))


def metric_output_checks() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                          "--tiny"])
        check_printed(proc, SPEC["end_to_end"], f"timed {workload}")
        if workload.startswith("render"):
            expect("mpix_per_s" in proc.stdout and "Mpix/s" in proc.stdout,
                   f"timed {workload}: mpix_per_s printed with unit Mpix/s")
        expect("fail_ratio" in proc.stdout, f"timed {workload}: fail_ratio printed")
    proc = run_bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--tiny"])
    check_printed(proc, SPEC["per_layer"], "traced run")
    expect("tracing overhead" in proc.stdout, "traced run: tracing overhead printed")


def negative_controls(work: Path) -> None:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from gate import Gate, pixel_sample, ppm_header
    from mcmullen.cli import main as cli_main
    from workloads import build

    seed = 3
    render = build("render-wide", seed, tiny=True)[0]
    centers = build("certify", seed, tiny=True)[0]
    winding = next(op for op in build("certify", seed, tiny=True) if op.op_id == "winding")

    def produce(op):
        out = work / f"{op.op_id}.{op.suffix}"
        argv = op.argv(str(out))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        return argv, rc, out.read_bytes()

    argv, rc, data = produce(render)
    expect(not Gate(seed).check(render, argv, rc, data)[1], "render output passes the gate")
    header = len(ppm_header(render))
    col, row = pixel_sample(render, seed)[0]
    flipped = bytearray(data)
    flipped[header + 3 * (row * render.size[0] + col)] ^= 0x01
    expect(bool(Gate(seed).check(render, argv, rc, bytes(flipped))[1]),
           "one flipped sampled pixel is caught by the pixel recompute")
    sampled = {(c, r) for c, r in pixel_sample(render, seed)}
    unsampled = next((c, r) for r in range(render.size[1]) for c in range(render.size[0])
                     if (c, r) not in sampled)
    flipped = bytearray(data)
    flipped[header + 3 * (unsampled[1] * render.size[0] + unsampled[0])] ^= 0x80
    gate = Gate(seed)
    gate.check(render, argv, rc, data)
    expect(bool(gate.check(render, argv, rc, bytes(flipped))[1]),
           "one flipped unsampled pixel in a later pass is caught by the byte comparison")
    expect(bool(Gate(seed).check(render, argv, rc, b"P5" + data[2:])[1]),
           "a wrong PPM header is caught")
    expect(bool(Gate(seed).check(render, argv, rc, data[:-3])[1]), "a short PPM is caught")

    argv, rc, data = produce(centers)
    expect(not Gate(seed).check(centers, argv, rc, data)[1], "centers output passes the gate")
    lines = data.decode().splitlines()
    fields = lines[1].split(",")
    fields[6] = "0.001"
    bad = "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"
    expect(bool(Gate(seed).check(centers, argv, rc, bad.encode())[1]),
           "a wrong residual field in the centers CSV is caught")

    argv, rc, data = produce(winding)
    expect(rc == 3 and not Gate(seed).check(winding, argv, rc, data)[1],
           "winding exits 3 by design and passes the gate")
    text = data.decode()
    expect(bool(Gate(seed).check(winding, argv, rc, text.replace(",false", ",true", 1).encode())[1]),
           "a wrong pass field in the verify CSV is caught")
    expect(bool(Gate(seed).check(winding, argv, 0, data)[1]), "a wrong exit code is caught")


def bare_directory_check(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           f"without sources: exit code {proc.returncode} and no result line")


def main() -> int:
    work = ROOT / ".bench_out" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metric_output_checks()
        negative_controls(work)
        bare_directory_check(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selfcheck: {len(failures)} failed" + (": " + "; ".join(failures) if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
