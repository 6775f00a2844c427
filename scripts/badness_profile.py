#!/usr/bin/env python3
"""Tabulate bad-tuple counts over full planes and the implied constants.

For each ring and tuple length, prints the count of tuples at every
badness level m together with count / bound-shape, the constant the
count bound is sharp up to.
"""

import argparse
import sys
from fractions import Fraction

from areal.census import bad_tuple_shape, count_bad_tuples
from areal.constructions import full_plane
from areal.rings import mod_prime_power, prime_field

RINGS = {
    "F3": prime_field(3),
    "F5": prime_field(5),
    "F7": prime_field(7),
    "Z9": mod_prime_power(3, 2),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rings", nargs="+", default=list(RINGS), choices=list(RINGS))
    ap.add_argument("--max-k", type=int, default=2)
    args = ap.parse_args()

    print("ring,k,m,count,shape,constant")
    for name in args.rings:
        spec = RINGS[name]
        E = full_plane(spec)
        for k in range(1, args.max_k + 1):
            counts = count_bad_tuples(E, k)
            for m in sorted(counts):
                shape = bad_tuple_shape(spec, k, len(E), m)
                const = Fraction(counts[m], shape)
                print(f"{name},{k},{m},{counts[m]},{shape},{float(const)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
