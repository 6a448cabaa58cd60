#!/usr/bin/env python3
"""Walk through the surgery pipeline on the braid axis of sigma_1^5 sigma_2.

The closure of sigma_1^5 sigma_2 is b(5,1), whose double branched cover is
L(5,1); the braid axis lifts to a GOF-knot there.  A 1/n surgery on that
knot inserts 2n full twists into the braid.  For n = 1 the resulting closure
is the mirror of b(5,1), so the surgered manifold is L(5,4), the same lens
space with reversed orientation.
"""

from gofknots import braid, classify, cover


def describe(word) -> None:
    nf = braid.normal_form(word)
    cid = classify.identify_closure(word)
    print(f"  word:          {braid.format_word(word) or '(empty)'}")
    print(f"  exponent sum:  {braid.exponent_sum(word)}")
    print(f"  normal form:   delta^{nf.delta_power} * {list(nf.factor_words())}")
    print(f"  determinant:   {cover.closure_determinant(word)}")
    print(f"  homology:      {cover.dbc_homology(word)}")
    if cid is None:
        print("  closure:       unrecognized")
    else:
        a, b = cid.fraction.pair
        tag = " (mirrored)" if cid.mirrored else ""
        print(f"  closure:       b({a},{b}){tag}")


def main() -> None:
    base = (1, 1, 1, 1, 1, 2)
    print("base braid:")
    describe(base)

    for n in (1, -1, 2):
        word = braid.surgery_twist(base, n)
        print(f"\nafter inserting {2 * abs(n)} full {'left' if n > 0 else 'right'}-handed twists (n = {n}):")
        describe(word)

    # the lifted solid torus double covers the axis neighbourhood, so a
    # reduced slope p/q doubles: odd q lifts to one curve of slope 2p/q, even
    # q to two parallel curves of slope p/(q/2)
    print("\nslope lifts along the axis:")
    for p, q in ((1, 1), (1, 2), (3, 2), (0, 1)):
        if q % 2:
            print(f"  {p}/{q} upstairs: 1 curve of slope {2 * p}/{q}")
        else:
            print(f"  {p}/{q} upstairs: 2 parallel curves of slope {p}/{q // 2}")


if __name__ == "__main__":
    main()
