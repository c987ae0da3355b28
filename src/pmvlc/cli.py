"""Command line front end: codebook reports, channel dumps, bound curves,
Monte Carlo sweeps and canned experiment presets.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    BATCH_BLOCKS,
    ber_union_bound,
    monte_carlo_ber,
    write_ber_csv,
    write_bound_csv,
)
from .channel import FIXTURES
from .codebook import combine_codebooks, enumerate_weight_w
from .scenarios import (
    _GEOMETRY_KEYS,
    ConfigError,
    Scenario,
    _resolve_channel,
    load_scenario,
    parse_scenario,
)
from .txcodec import PamConfig

PRESETS = {
    "fig2": ("fig2-h02.ini", "fig2-h06.ini"),
    "fig3": ("fig3.ini",),
    "fig4-cb1-cb2": ("fig4-cb1.ini", "fig4-cb2.ini"),
    "fig5-mobility": ("fig5-x00.ini", "fig5-x02.ini", "fig5-x04.ini"),
    "fig6-blockage": ("fig6-blockage.ini",),
}


def codebook_report(L: int, weights, M: int = 1) -> str:
    """Per-weight counts, combined size and rate figures, plus the entries.
    The library checks L, each weight and M; a failed check is a ConfigError."""
    weights = tuple(sorted(set(int(w) for w in weights)))
    if not weights:
        raise ConfigError("no weights given")
    try:
        pam = PamConfig(M=M)
        parts = [enumerate_weight_w(L, w) for w in weights]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [f"weight {w}: {cb.size} codewords" for w, cb in zip(weights, parts)]
    combined = parts[0] if len(parts) == 1 else combine_codebooks(parts)
    del parts  # combined holds every entry's arrays again: drop this copy before the text
    q = combined.size
    bits_block = combined.bits_per_block(pam.M)
    lines.append(f"combined Q = {q}")
    lines.append(f"bits per block (M={M}): {bits_block}")
    # the rate of the signalling set, the pairs that carry data
    lines.append(f"bits per symbol: {bits_block / L:.4g}")
    lines.append("entries:")
    # "  {idx:4d}  w={w}  {comps}" per entry, idx from 1
    # one join of the header and the pieces, the last without its newline:
    # the text is built once, not once for the entries and again here
    chunks = list(combined.entry_chunks(" + ", ("  ", (np.arange(1, q + 1), 4), "  w=",
                                                (combined.weight_array, 1), "  ")))
    chunks[-1] = chunks[-1][:-1]
    return "".join(["\n".join(lines), "\n", *chunks])


def _write_bound(scenario: Scenario, out_dir: Path) -> Path:
    curve = ber_union_bound(scenario.codebook, scenario.pam, scenario.channel,
                            scenario.ebn0_grid, scheme=scenario.scheme)
    path = out_dir / f"{scenario.name}_bound.csv"
    write_bound_csv(curve, path)
    return path


def run_scenario(scenario: Scenario, out_dir: Path, threads: int, overrides) -> list[Path]:
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    print(f"scenario {scenario.name}: channel={scenario.channel_desc} "
          f"grid={scenario.ebn0_grid[0]:g}..{scenario.ebn0_grid[-1]:g} dB "
          f"({len(scenario.ebn0_grid)} points)")
    header = f"{'scheme':<20} {'detector':<10} {'points':>6} {'blocks':>12} " \
             f"{'bit_errors':>10} {'elapsed_s':>9} {'mean_ops':>9}"
    print(header)
    for cfg in scenario.configs:
        t0 = time.perf_counter()
        recs = monte_carlo_ber(cfg, threads=threads)
        elapsed = time.perf_counter() - t0
        records.extend(recs)
        blocks = sum(r.blocks for r in recs)
        # rc, sm and guess decode without modelled work
        ops_s = "-" if cfg.detector in ("rc", "sm", "guess") else \
            f"{sum(r.ops for r in recs) / blocks:.1f}"
        print(f"{cfg.scheme:<20} {cfg.detector:<10} {len(recs):>6} {blocks:>12} "
              f"{sum(r.bit_errors for r in recs):>10} {elapsed:>9.2f} "
              f"{ops_s:>9}")
    written = [out_dir / f"{scenario.name}_ber.csv"]
    write_ber_csv(records, written[0])
    if scenario.codebook is not None:
        written.append(_write_bound(scenario, out_dir))
    for p in written:
        print(f"wrote {p}")
    return written


def _overrides(args) -> dict:
    return {"seed": args.seed, "errors_target": args.errors_target,
            "block_cap": args.block_cap}


def cmd_codebook(args) -> int:
    try:
        weights = [int(w) for w in args.weights.split(",") if w.strip()]
    except ValueError:
        raise ConfigError(f"--weights must be comma-separated integers, got {args.weights!r}") from None
    print(codebook_report(args.length, weights, args.m))
    return 0


def cmd_channel(args) -> int:
    if args.fixture and args.fixture not in FIXTURES:
        raise ConfigError(f"unknown fixture {args.fixture!r}; "
                          f"available: {', '.join(sorted(FIXTURES))}")
    # only the flags given, as a scenario file sets keys: a flag left out
    # takes the geometry's own default, and a fixture rejects any geometry key
    kv = {k: getattr(args, k) for k in _GEOMETRY_KEYS if getattr(args, k) is not None}
    kv["channel"] = args.fixture or "geometry"
    channel, _ = _resolve_channel(kv, "<channel args>")
    for row in channel.H:
        print(" ".join(f"{v:.6e}" for v in row))
    return 0


def cmd_bound(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.codebook is None:
        raise ConfigError("bound requires a scenario with a codebook")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"wrote {_write_bound(scenario, out_dir)}")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    run_scenario(scenario, Path(args.out_dir), args.threads, _overrides(args))
    return 0


def preset_scenarios(name: str) -> list[Scenario]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(PRESETS))}")
    out = []
    for fname in PRESETS[name]:
        text = resources.files("pmvlc.presets").joinpath(fname).read_text(encoding="utf-8")
        out.append(parse_scenario(text, source=fname))
    return out


def cmd_preset(args) -> int:
    for scenario in preset_scenarios(args.name):
        run_scenario(scenario, Path(args.out_dir), args.threads, _overrides(args))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmvlc",
        description="Permutation-modulation space-time codes for optical MIMO: "
                    "codebook tools, channel models and BER experiments.")
    # bound writes a file; simulate and preset also run the Monte Carlo
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="output directory")
    run = argparse.ArgumentParser(add_help=False, parents=[out])
    run.add_argument("--seed", type=int, default=None,
                     help="master seed override")
    run.add_argument("--threads", type=int, default=1, help="Monte Carlo worker threads, each "
                     "running one batch at a time; any count gives the same output")
    run.add_argument("--errors-target", type=int, default=None,
                     help=f"stop a point after the {BATCH_BLOCKS}-block batch that reaches this many bit errors")
    run.add_argument("--block-cap", type=int, default=None,
                     help=f"stop a point after the {BATCH_BLOCKS}-block batch that reaches this many blocks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="print per-weight counts and entry listing")
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--weights", default="1")
    p.add_argument("--m", type=int, default=1, help="PAM levels per entry")
    p.set_defaults(func=cmd_codebook)

    p = sub.add_parser("channel", help="print a channel gain matrix")
    p.add_argument("--fixture", default=None)
    # the scenario geometry keys; their text is parsed as a scenario's is
    for key in _GEOMETRY_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("bound", parents=[out],
                       help="union bound curve for a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", parents=[run],
                       help="Monte Carlo BER for a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preset", parents=[run],
                       help="run a canned experiment")
    p.add_argument("name")
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
