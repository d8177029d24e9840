#!/usr/bin/env python3
"""Random survey of stabilizer structure against coefficient patterns.

Samples general-position weight systems, tabulates how often they are
strict and what finite stabilizer orders appear on the coordinate strata.
Each stratum's orders are checked against |c_i|; the exit status is 1 when
any disagree.

    PYTHONPATH=src python scripts/stabilizer_survey.py --count 400
"""

import argparse
import random
import sys
from collections import Counter

from complexity_one.lattice import IntVector
from complexity_one.weights import (
    WeightSystem,
    cramer_coefficients,
    is_general_position,
    is_strictly_appropriate,
    stabilizer_structure,
)


def sample(rng: random.Random, n: int, bound: int) -> WeightSystem:
    while True:
        weights = tuple(
            IntVector(tuple(rng.randint(-bound, bound) for _ in range(n - 1)))
            for _ in range(n)
        )
        try:
            ws = WeightSystem(n, weights)
        except Exception:
            continue
        if is_general_position(ws):
            return ws


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=400)
    ap.add_argument("--bound", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    orders = Counter()
    strict = 0
    mismatches = 0
    for _ in range(args.count):
        n = rng.randint(3, 6)
        ws = sample(rng, n, args.bound)
        if is_strictly_appropriate(ws):
            strict += 1
        for i in range(n):
            st = stabilizer_structure(ws, [i])
            for d in st.finite_orders:
                orders[d] += 1
            c = cramer_coefficients(ws).c
            expected = (abs(c[i]),) if abs(c[i]) > 1 else ()
            if st.finite_orders != expected:
                mismatches += 1
                print(f"mismatch: {ws} stratum {i}: orders {st.finite_orders}, expected {expected}",
                      file=sys.stderr)

    print(f"samples: {args.count}  strict: {strict} ({100 * strict / args.count:.1f}%)")
    print("finite stabilizer orders on coordinate strata (orders up to 12):")
    shown = 0
    for d, k in sorted(orders.items()):
        if d <= 12:
            print(f"  Z_{d}: {k}")
            shown += k
    rest = sum(orders.values()) - shown
    if rest:
        print(f"  larger orders: {rest} occurrences, max Z_{max(orders)}")
    if mismatches:
        print(f"{mismatches} strata disagree with |c_i|", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
