#!/usr/bin/env python3
"""Census experiment: count GOF-knots in every lens space L(alpha, beta).

Reproduces the small value table, then sweeps all canonical two-bridge
fractions up to --max, reporting the count histogram, every fraction with
more than one axis class beyond the torus locus, and the runtime.
"""

import argparse
import time
from collections import Counter

from gofknots import braid, classify

VALUE_TABLE = [
    (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (5, 2),
    (19, 1), (19, 2), (19, 3), (19, 4), (19, 7),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=1000, help="largest alpha to census")
    parser.add_argument("--show-families", action="store_true",
                        help="print every family fraction with its witness")
    args = parser.parse_args()

    print("value table:")
    for alpha, beta in VALUE_TABLE:
        report = classify.axis_classes(alpha, beta)
        witnesses = ", ".join(braid.format_syllables(w.syllables) for w in report.witnesses) or "-"
        print(f"  L({alpha},{beta}): {report.count}   [{witnesses}]")

    print(f"\ncensus to alpha = {args.max}:")
    t0 = time.perf_counter()
    histogram = Counter()
    triples = []
    families = []
    for alpha, betas, reports in classify.census_by_alpha(args.max):
        # a beta with no report has count 0
        for beta in betas:
            report = reports.get(beta)
            count = 0 if report is None else report.count
            histogram[count] += 1
            if count == 3:
                triples.append((alpha, beta))
            if count == 1 and report.family is not None:
                families.append(((alpha, beta), report.family, report.witnesses[0].syllables))
    elapsed = time.perf_counter() - t0

    total = sum(histogram.values())
    print(f"  canonical fractions: {total}")
    for count in sorted(histogram):
        print(f"  count {count}: {histogram[count]}")
    print(f"  fractions with three axis classes: {triples}")
    print(f"  runtime: {elapsed:.2f} s")

    if args.show_families:
        print("\nfamily fractions (count 1):")
        for pair, params, sylls in families:
            print(f"  b{pair}  {params.family}(p={params.p},q={params.q})  {braid.format_syllables(sylls)}")


if __name__ == "__main__":
    main()
