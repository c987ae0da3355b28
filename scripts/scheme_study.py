#!/usr/bin/env python3
"""4-bit scheme shoot-out on two transmitter spacings.

Runs the `fig2` preset scenarios (the 16-entry permutation book under ML
against repetition-coded 16-PAM and spatial modulation, on the 0.2 m fixture
and on a generated 0.6 m grid) at seed 3 with a 300 000-block cap, prints
where each curve crosses 1e-3 and writes each scenario's rows to
{name}_ber.csv, as `pmvlc preset fig2 --seed 3 --block-cap 300000` does.
The spacings land on opposite sides of the story: the 0.2 m matrix is near
rank one and repetition coding wins by about 1 dB; at 0.6 m the permutation
book crosses about 20 dB before repetition coding and 9 dB before spatial
modulation.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from pmvlc.analysis import monte_carlo_ber, write_ber_csv
from pmvlc.cli import preset_scenarios


def crossing(records, level=1e-3):
    pts = [(r.ebn0_db, r.ber) for r in records]
    for (d0, b0), (d1, b1) in zip(pts, pts[1:]):
        if b0 >= level >= b1 > 0:
            t = (math.log10(level) - math.log10(b0)) / (math.log10(b1) - math.log10(b0))
            return d0 + t * (d1 - d0)
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--errors-target", type=int, default=None,
                    help="stop a point after this many bit errors (default: the preset's)")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    overrides = {"seed": 3, "block_cap": 300_000}
    if args.errors_target is not None:
        overrides["errors_target"] = args.errors_target
    for scenario in preset_scenarios("fig2"):
        scenario = replace(scenario, **overrides)
        records = []
        for cfg in scenario.configs:
            recs = monte_carlo_ber(cfg, threads=args.threads)
            records.extend(recs)
            c = crossing(recs)
            where = f"{c:.2f} dB" if c is not None else "outside grid"
            print(f"{scenario.name}  {cfg.scheme:12s} 1e-3 crossing: {where}")
        path = out / f"{scenario.name}_ber.csv"
        write_ber_csv(records, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
