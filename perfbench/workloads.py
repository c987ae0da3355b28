#!/usr/bin/env python3
"""Run one benchmark workload in this process and print one JSON line.

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE \
        --out DIR [--smoke]

MODE is one of
  setup  import pmvlc, build the workload's scenarios and print the
         monotonic clock, so the caller can time set-up from process start;
  run    set up, run the workload's fixed work untraced, check the outputs;
  trace  the same under the span tracer, plus per-layer metrics.
`--smoke` shrinks every workload for the benchmark's self-test. pmvlc must be
importable (run.py puts the checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from pmvlc import analysis, cli, scenarios
from pmvlc.analysis import BATCH_BLOCKS, write_bound_csv
from pmvlc.channel import FIXTURES
from pmvlc.detectors import RcConfig, SmConfig
from pmvlc.txcodec import PamConfig

from tracer import Tracer, layer_metrics, ml_blocks_per_s

INPUTS = Path(__file__).resolve().parent / "inputs"
WORKLOADS = ("presets-quick", "coherent-m16", "design")
# scripts/run_presets.py --quick
QUICK_RULE = ("--errors-target", "30", "--block-cap", "20000")
SMOKE_CAP = str(BATCH_BLOCKS)


def _cli(argv) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split(",")
    # the scheme label in the first column may itself contain commas
    return [dict(zip(head, line.rsplit(",", len(head) - 1))) for line in lines[1:]]


def _bound_problem(values, grid) -> str:
    v = np.asarray(values, dtype=np.float64)
    if len(v) != len(grid):
        return f"{len(v)} bound values for {len(grid)} grid points"
    if not np.isfinite(v).all() or (v < 0).any():
        return "bound value not finite or negative"
    if (np.diff(v) > 0).any():
        return "bound increases along the grid"
    return ""


class ScenarioCall:
    """One `pmvlc preset` or `pmvlc simulate` call and the CSVs it writes."""

    def __init__(self, argv, scenario_list, seed, errors_target, block_cap, fixed):
        self.argv = list(argv)
        self.scenarios = scenario_list
        self.seed = seed
        self.errors_target = errors_target
        self.block_cap = block_cap
        self.fixed = fixed
        self.code = None

    def run(self, out: Path) -> None:
        self.code, _ = _cli([*self.argv, "--out-dir", out])

    def check(self, out: Path):
        files = [out / f"{s.name}_{kind}.csv" for s in self.scenarios
                 for kind in ("ber", "bound")]
        missing = [f.name for f in files if not f.is_file()]
        names = "+".join(s.name for s in self.scenarios)
        yield (f"cli:{self.argv[0]}:{names}", self.code == 0 and not missing,
               f"exit {self.code}, missing {missing}")
        for scn in self.scenarios:
            if not (out / f"{scn.name}_ber.csv").is_file():
                continue
            rows = _read_csv(out / f"{scn.name}_ber.csv")
            for det in scn.detectors:
                mine = [r for r in rows if r["detector"] == det]
                problem = self._rows_problem(scn, det, mine)
                yield f"{scn.name}:{det}", not problem, problem
            bound = _read_csv(out / f"{scn.name}_bound.csv")
            problem = _bound_problem([float(r["bound"]) for r in bound], scn.ebn0_grid)
            yield f"{scn.name}:bound", not problem, problem

    def _rows_problem(self, scn, det, rows) -> str:
        if [float(r["ebn0_db"]) for r in rows] != list(scn.ebn0_grid):
            return f"rows do not follow the grid: {[r['ebn0_db'] for r in rows]}"
        L = scn.channel.H.shape[1]
        if det == "rc":
            per_block = RcConfig(L=L, M=scn.rc_m).bits
        elif det == "sm":
            per_block = SmConfig(L=L, M=scn.sm_m).bits
        else:
            per_block = scn.codebook.bits_per_block(scn.pam.M)
        for r in rows:
            ber, errors = float(r["ber"]), int(r["bit_errors"])
            bits, blocks = int(r["bits"]), int(r["blocks"])
            at = f"{r['ebn0_db']} dB: "
            if not (math.isfinite(ber) and 0.0 <= ber <= 1.0):
                return at + f"ber {ber} outside [0, 1]"
            if bits != blocks * per_block:
                return at + f"bits {bits} != blocks {blocks} x {per_block}"
            if abs(ber * bits - errors) > 1e-6 * max(errors, 1):
                return at + f"ber {ber} != {errors}/{bits}"
            if int(r["seed"]) != self.seed:
                return at + f"seed {r['seed']} != {self.seed}"
            if blocks == 0 or blocks % BATCH_BLOCKS:
                return at + f"blocks {blocks} not a whole number of batches"
            if self.fixed:
                if blocks != self.block_cap:
                    return at + f"fixed-length point ran {blocks} blocks, not {self.block_cap}"
            elif not (errors >= self.errors_target or blocks >= self.block_cap) \
                    or blocks >= self.block_cap + BATCH_BLOCKS:
                return at + f"stopping rule broken: {errors} errors in {blocks} blocks"
        return ""


class ReportCall:
    """One `pmvlc codebook` report with its expected per-weight sizes."""

    def __init__(self, length, weights, sizes):
        self.length, self.weights, self.sizes = length, weights, sizes
        self.code, self.text = None, ""

    def run(self, out: Path) -> None:
        self.code, self.text = _cli(["codebook", "--length", self.length,
                                     "--weights", ",".join(map(str, self.weights))])

    def check(self, out: Path):
        counts = {int(w): int(n) for w, n in
                  re.findall(r"^weight (\d+): (\d+) codewords$", self.text, re.M)}
        q = re.search(r"^combined Q = (\d+)$", self.text, re.M)
        listed = len(re.findall(r"^ +\d+  w=\d+  ", self.text, re.M))
        ok = self.code == 0 and q is not None and int(q.group(1)) == listed == sum(self.sizes)
        yield (f"cli:codebook L{self.length}", ok,
               f"exit {self.code}, Q {q and q.group(1)}, {listed} entries listed")
        for w, size in zip(self.weights, self.sizes):
            yield (f"enumerate:L{self.length}w{w}", counts.get(w) == size,
                   f"{counts.get(w)} codewords, expected {size}")


class BoundCall:
    """One library `ber_union_bound` call, written out as a bound CSV."""

    def __init__(self, book, codebook, M, channel, grid):
        self.name = f"{book}-M{M}"
        self.args = (codebook, PamConfig(M=M), channel, grid)
        self.scheme = scenarios.scheme_label(codebook, self.args[1])
        self.curve = None

    def run(self, out: Path) -> None:
        self.curve = analysis.ber_union_bound(*self.args, scheme=self.scheme)
        write_bound_csv(self.curve, out / f"{self.name}_bound.csv")

    def check(self, out: Path):
        problem = _bound_problem(self.curve.values, self.args[3])
        yield f"bound:{self.name}", not problem, problem


def build(workload: str, seed: int, smoke: bool, threads: int | None = None):
    """The workload's calls, with every scenario and codebook built."""
    if workload == "presets-quick":
        rule = (*QUICK_RULE[:3], SMOKE_CAP) if smoke else QUICK_RULE
        names = ("fig2", "fig6-blockage") if smoke else sorted(cli.PRESETS)
        flags = ("--threads", 1, "--seed", seed, *rule)
        calls = [ScenarioCall(("preset", n, *flags), cli.preset_scenarios(n), seed,
                              int(rule[1]), int(rule[3]), fixed=False) for n in names]
        path = INPUTS / "cb1-bb.ini"
        calls.append(ScenarioCall(("simulate", "--scenario", path, *flags),
                                  [scenarios.load_scenario(path)], seed,
                                  int(rule[1]), int(rule[3]), fixed=False))
        return calls
    if workload == "coherent-m16":
        path = INPUTS / "coherent-m16.ini"
        scn = scenarios.load_scenario(path)
        cap = int(SMOKE_CAP) if smoke else scn.block_cap
        argv = ("simulate", "--scenario", path, "--threads", threads or 2,
                "--seed", seed, "--block-cap", cap)
        return [ScenarioCall(argv, [scn], seed, scn.errors_target, cap, fixed=True)]
    if workload == "design":
        spec = json.loads((INPUTS / "design.json").read_text(encoding="utf-8"))
        calls = []
        for rep in spec["reports"]:
            # the smoke run skips the 67950-entry L = 6, w = 2 enumeration
            pairs = [(w, n) for w, n in zip(rep["weights"], rep["sizes"])
                     if not smoke or n <= 2040]
            calls.append(ReportCall(rep["length"], [w for w, _ in pairs],
                                    [n for _, n in pairs]))
        b = spec["bounds"]
        channel = FIXTURES[b["channel"]]()
        for book in b["books"]:
            codebook = scenarios.named_codebook(book)
            for M in b["m"]:
                if not (smoke and M > 4):
                    calls.append(BoundCall(book, codebook, M, channel, tuple(b["ebn0_db"])))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def _run(calls, out: Path) -> float:
    t0 = time.perf_counter()
    for call in calls:
        call.run(out)
    return time.perf_counter() - t0


def _check(calls, out: Path) -> list:
    return [list(op) for call in calls for op in call.check(out)]


def _sha256(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def _book_labels() -> dict[str, str]:
    return {scenarios.named_codebook(n).label: n for n in scenarios.CODEBOOKS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    result = {"python": sys.version.split()[0], "numpy": np.__version__,
              "scipy": scipy.__version__}
    if args.mode == "setup":
        build(args.workload, args.seed, args.smoke)
        result["setup_end"] = time.monotonic()
    elif args.mode == "run":
        calls = build(args.workload, args.seed, args.smoke)
        result["wall_s"] = _run(calls, args.out)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["ops"] = _check(calls, args.out)
    else:
        with Tracer() as tracer:
            calls = build(args.workload, args.seed, args.smoke)
            result["wall_s"] = _run(calls, args.out)
        result["ops"] = _check(calls, args.out)
        layers = layer_metrics(tracer.spans, _book_labels())
        speedup = dict.fromkeys(("thread_speedup.ml", "blocks_per_s_threads1.ml",
                                 "blocks_per_s_threads2.ml"), 0.0)
        if args.workload == "coherent-m16":
            # the same scenario at one thread: the CSVs must not change
            single = args.out / "threads1"
            single.mkdir()
            with Tracer() as tracer1:
                calls1 = build(args.workload, args.seed, args.smoke, threads=1)
                _run(calls1, single)
            result["ops"] += _check(calls1, single)
            for f in sorted(args.out.glob("*.csv")):
                twin = single / f.name
                same = twin.is_file() and twin.read_bytes() == f.read_bytes()
                result["ops"].append([f"threads-identity:{f.name}", same,
                                      "threads 1 and 2 differ" if not same else ""])
            t1, t2 = ml_blocks_per_s(tracer1.spans), ml_blocks_per_s(tracer.spans)
            speedup = {"thread_speedup.ml": t2 / t1 if t1 else 0.0,
                       "blocks_per_s_threads1.ml": t1, "blocks_per_s_threads2.ml": t2}
        layers.update({f"analysis.monte_carlo_ber.{k}": v for k, v in speedup.items()})
        result["layers"] = layers
    if args.mode != "setup":
        result["csv_sha256"] = _sha256(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
