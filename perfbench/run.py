#!/usr/bin/env python3
"""pmvlc benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. `--workload all` runs the three workloads in
turn. Workloads (see perfbench/README.md):
  presets-quick  all nine presets under `run_presets.py --quick` at one
                 thread, plus a weight-1 `bb` scenario;
  coherent-m16   a 16-PAM coherent sweep (ml, bf, guess) at two threads with
                 a fixed block count per point;
  design         codebook reports for L = 5 and 6 and union bounds at
                 M = 1/4/16, with no Monte Carlo.

With `--trace 0` it sets up the workload several times (each a fresh
interpreter: start, `import pmvlc`, build the scenarios) and runs the fixed
work as many times as fit in `--seconds` (at least once), each in a fresh
process, and reports the medians of wall_s, setup_s and peak_rss_mb. With
`--trace 1` it runs the work once untraced and once under the span tracer and
reports the per-layer metrics and the tracing overhead. The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = {"presets-quick": 1, "coherent-m16": 2, "design": 1}  # name: threads
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPS = 7
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def _child(workload, seed, mode, out: Path, smoke) -> tuple[dict, float]:
    """Run workloads.py in a fresh interpreter; returns its JSON and the
    monotonic time just before it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), start


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "pmvlc").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def measure(workload, seed, seconds, smoke, work: Path) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and a report."""
    t_start = time.monotonic()
    setups = []
    for i in range(SETUP_REPS):
        res, spawned = _child(workload, seed, "setup", work / f"setup{i}", smoke)
        setups.append(res["setup_end"] - spawned)
    reps = []
    while True:
        t = time.monotonic()
        reps.append(_child(workload, seed, "run", work / f"run{len(reps)}", smoke)[0])
        if time.monotonic() - t_start + (time.monotonic() - t) > seconds:
            break
    each = {"wall_s": [r["wall_s"] for r in reps], "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    metrics = {k: {"value": statistics.median(each[k]), "unit": u} for k, u in END_TO_END}
    return metrics, {"reps": reps, **{f"{k}_each": v for k, v in each.items()}}


def trace(workload, seed, smoke, work: Path) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, with the overhead against an untraced run."""
    plain = _child(workload, seed, "run", work / "run", smoke)[0]
    traced = _child(workload, seed, "trace", work / "trace", smoke)[0]
    changed = sorted(f for f, sha in plain["csv_sha256"].items()
                     if traced["csv_sha256"].get(f) != sha)
    traced["ops"].append(["tracing-identity", not changed, f"tracing changed {changed}"])
    layers = dict(traced["layers"])
    layers["tracing.traced_wall_s"] = traced["wall_s"]
    layers["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return metrics, {"reps": [plain, traced], "untraced_wall_s": plain["wall_s"]}


def run_workload(workload, args) -> int:
    scratch = BENCH / "_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        if args.trace:
            metrics, report = trace(workload, args.seed, args.smoke, work)
        else:
            metrics, report = measure(workload, args.seed, args.seconds, args.smoke, work)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rep in report["reps"] for op in rep["ops"]]
    failed = [op for op in ops if not op[1]]
    last = report.pop("reps")[-1]
    provenance = {
        "workload": workload, "seed": args.seed, "threads": WORKLOADS[workload],
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": last["python"], "numpy": last["numpy"], "scipy": last["scipy"],
        "git_rev": _git_rev(), "src_sha256": _src_sha256(),
    }
    print(json.dumps({"provenance": provenance, "csv_sha256": last["csv_sha256"],
                      "failed_ops": failed, **report}))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size workloads, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "pmvlc" / "cli.py").is_file():
        print(f"error: no pmvlc source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(w, args) for w in names)


if __name__ == "__main__":
    sys.exit(main())
