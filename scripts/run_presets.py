#!/usr/bin/env python3
"""Run every canned preset and collect the CSVs under one directory.

The whole full-fidelity set takes about 10 s at --threads 2 on 2 CPUs, fig3
the longest at 4.4 s; pass --quick to cap the per-point work while checking
plumbing end to end.
"""

import argparse
import sys

from pmvlc.cli import PRESETS, main as cli_main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of preset names (default: all)")
    ap.add_argument("--quick", action="store_true",
                    help="loose stopping rule for a fast smoke run")
    args = ap.parse_args(argv)

    names = args.only if args.only else sorted(PRESETS)
    for name in names:
        argv = ["preset", name, "--out-dir", args.out_dir,
                "--threads", str(args.threads)]
        if args.quick:
            argv += ["--errors-target", "30", "--block-cap", "20000"]
        code = cli_main(argv)
        if code != 0:
            print(f"preset {name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
