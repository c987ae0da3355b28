#!/usr/bin/env python3
"""Distance accounting for the named codebooks under a channel fixture.

For each book: the spectrum of pairwise received-signal distances
||H (S_i - S_j)||_F^2 over the signals that carry data (the pairs in each
rounded bucket), the minimum (which controls the high-SNR error floor
position), and the Eb/N0 where the union bound crosses 1e-3.
Useful when choosing subsets: books with the same size can sit >3 dB
apart purely through the pairs they keep.
"""

import argparse
import sys
from collections import Counter

import numpy as np

from pmvlc.analysis import ber_union_bound, distance_spectrum
from pmvlc.channel import FIXTURES
from pmvlc.detectors import received_means
from pmvlc.scenarios import CODEBOOKS, named_codebook
from pmvlc.txcodec import PamConfig


def spectrum(codebook, pam, H):
    # the distinct distances of the signaling pairs the union bound sums
    # over, ascending, their pair counts and summed bit distances
    return distance_spectrum(received_means(codebook, pam, H))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="h02", choices=sorted(FIXTURES))
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--books", nargs="*", default=sorted(CODEBOOKS))
    args = ap.parse_args()

    channel = FIXTURES[args.fixture]()
    pam = PamConfig(M=args.m)
    grid = tuple(np.arange(80.0, 130.0, 0.25))
    for name in args.books:
        cb = named_codebook(name)
        d2, counts, _ = spectrum(cb, pam, channel.H)
        bound = ber_union_bound(cb, pam, channel, grid)
        cross = next((db for db, v in zip(bound.ebn0_db, bound.values)
                      if v <= 1e-3), None)
        buckets = Counter()
        for v, c in zip(d2, counts.tolist()):
            buckets[f"{v:.3e}"] += c
        top = ", ".join(f"{k} x{c}" for k, c in
                        sorted(buckets.items(), key=lambda kv: float(kv[0]))[:4])
        print(f"{name:12s} Q={cb.size:<3d} min d2 {d2[0]:.3e}  "
              f"bound@1e-3 {cross if cross else '>130'} dB")
        print(f"{'':12s} spectrum: {top}"
              + (" ..." if len(buckets) > 4 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
