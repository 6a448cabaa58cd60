"""Output checks for the benchmark, computed apart from gofknots.

Nothing here imports the program.  Counts come from the divisor rule
(alpha = 2pq+p+q is 2*alpha+1 = (2p+1)(2q+1), and alpha = 2pq+p+q+1 is
2*alpha-1 = (2p+1)(2q+1)), determinants and traces from closed-form reduced
Burau powers of syllables (runs of one letter), and canonical fractions from
their mirror orbits.  Each check returns a list of problems; empty is a pass.
"""

from __future__ import annotations

from math import gcd, isqrt

Syllable = tuple[int, int]  # (generator 1 or 2, nonzero exponent)


def canonical_pair(alpha: int, beta: int) -> tuple[int, int]:
    """Smallest member of the mirror orbit {+-beta^{+-1} mod alpha}."""
    if alpha < 0:
        alpha, beta = -alpha, -beta
    if alpha <= 1:
        return (alpha, 1)
    b = beta % alpha
    inv = pow(b, -1, alpha)
    return (alpha, min(b, inv, alpha - b, alpha - inv))


def mirror_orbit(alpha: int, beta: int) -> set[int]:
    b = beta % alpha
    inv = pow(b, -1, alpha)
    return {b, inv, alpha - b, alpha - inv}


def family_residues(alpha: int) -> set[int]:
    """Odd d >= 3 dividing 2*alpha +- 1 with cofactor >= 3, i.e. every 2q+1."""
    found = set()
    for n in (2 * alpha + 1, 2 * alpha - 1):
        for d in range(3, isqrt(n) + 1, 2):
            if n % d == 0:
                found.update(x for x in (d, n // d) if x >= 3 and n // x >= 3)
    return found


def expected_count(alpha: int, beta: int) -> int:
    """GOF-knot count of L(alpha, beta) from the divisor rule."""
    alpha, beta = canonical_pair(alpha, beta)
    if alpha == 0:
        return 1  # the unlink b(0,1) has the single axis sigma_2
    if (alpha, beta) == (4, 1):
        return 3
    if beta == 1:  # beta = +-1 mod alpha; alpha = 1 lands here too
        return 2
    return 1 if family_residues(alpha) & mirror_orbit(alpha, beta) else 0


_BLOCK = 1 << 14
_RUNS = {x: (x,) * _BLOCK for x in (1, -1, 2, -2)}


def syllables(word) -> list[Syllable]:
    """Runs of one letter.

    A run is measured by comparing slices of the word with a block of the same
    letter, which runs at C speed because tuple comparison skips identical
    small ints.  The step doubles while blocks match, up to 16384 letters so
    that no slice is large, then halves down to one letter to stop at the
    first other letter.
    """
    w = tuple(word)
    n = len(w)
    out = []
    i = 0
    while i < n:
        x = w[i]
        if x not in _RUNS:
            raise ValueError(f"not a braid word: bad letter {x!r} at position {i}")
        same = _RUNS[x]
        j, step, growing = i + 1, 1, True  # w[i:j] is all x
        while step:
            if j + step <= n and w[j:j + step] == same[:step]:
                j += step
                if not growing:
                    step //= 2
                elif step < _BLOCK:
                    step *= 2
            else:
                growing = False
                step //= 2
        out.append((abs(x), j - i if x > 0 else i - j))
        i = j
    return out


def mirror_syllables(sylls: list[Syllable]) -> list[Syllable]:
    return [(g, -e) for g, e in sylls]


def burau(sylls: list[Syllable]) -> tuple[int, int, int, int]:
    """Reduced Burau at -1 from closed-form powers.

    sigma_1^k -> [[1, k], [0, 1]] and sigma_2^k -> [[1, 0], [-k, 1]],
    multiplied in word order.
    """
    a, b, c, d = 1, 0, 0, 1
    for gen, k in sylls:
        if gen == 1:
            b, d = a * k + b, c * k + d
        else:
            a, c = a - b * k, c - d * k
    return (a, b, c, d)


def closure_det(sylls: list[Syllable]) -> int:
    a, b, c, d = burau(sylls)
    return abs((a - 1) * (d - 1) - b * c)


def trace(sylls: list[Syllable]) -> int:
    a, _, _, d = burau(sylls)
    return a + d


def exponent_sum(sylls: list[Syllable]) -> int:
    return sum(e for _, e in sylls)


def witness_problems(alpha: int, beta: int, count: int, witnesses: list[list[Syllable]]) -> list[str]:
    """Check one count answer and its witnesses against b(alpha, beta).

    The count must follow the divisor rule.  Each witness must have
    |det(M - I)| = alpha and must pin beta as well: a torus witness
    sigma_1^alpha sigma_2^+-1 only fits beta = +-1, and a family witness
    sigma_1^p sigma_2^2 sigma_1^e sigma_2^-1 (e = q, or e = -(q+1) for the
    second family) must give alpha and put 2q+1 in the orbit of beta.
    """
    ca, cb = canonical_pair(alpha, beta)
    where = f"b({alpha},{beta})"
    problems = []
    want = expected_count(ca, cb)
    if count != want:
        problems.append(f"{where}: count {count}, divisor rule gives {want}")
    if len(witnesses) != count:
        problems.append(f"{where}: {len(witnesses)} witnesses for count {count}")
    torus_tails = []
    for sylls in witnesses:
        det = closure_det(sylls)
        if det != ca:
            problems.append(f"{where}: witness {sylls[:6]} has determinant {det}")
            continue
        if len(sylls) == 1 and sylls[0] in ((2, 1), (2, -1)) or (
            len(sylls) == 2 and sylls[0][0] == 1 and sylls[1] in ((2, 1), (2, -1))
        ):
            k = sylls[0][1] if len(sylls) == 2 else 0
            if k != ca or cb != 1:
                problems.append(f"{where}: torus witness sigma_1^{k} does not fit")
            torus_tails.append(sylls[-1][1])
            continue
        params = family_params(sylls)
        if params is None:
            problems.append(f"{where}: witness {sylls[:6]} has no known shape")
            continue
        family, p, q = params
        fam_alpha = 2 * p * q + p + q + (family == "two")
        if fam_alpha != ca or ca < 2 or (2 * q + 1) % ca not in mirror_orbit(ca, cb):
            problems.append(f"{where}: family witness (p,q)=({p},{q}) does not pin this fraction")
    if len(torus_tails) != len(set(torus_tails)):
        problems.append(f"{where}: repeated torus witness")
    return problems


def family_params(sylls: list[Syllable]):
    """(family, p, q) of sigma_1^p sigma_2^2 sigma_1^e sigma_2^-1, else None."""
    if len(sylls) != 4 or [g for g, _ in sylls] != [1, 2, 1, 2]:
        return None
    (_, p), (_, two), (_, e), (_, minus_one) = sylls
    if p < 1 or two != 2 or minus_one != -1:
        return None
    if e >= 1:
        return ("one", p, e)
    if e <= -2:
        return ("two", p, -e - 1)
    return None


def canonical_fractions_upto(n: int) -> list[tuple[int, int]]:
    """Every canonical fraction with alpha <= n, sorted, from orbit minima."""
    found = {(0, 1)} if n >= 0 else set()
    if n >= 1:
        found.add((1, 1))
    for alpha in range(2, n + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                found.add(canonical_pair(alpha, beta))
    return sorted(found)


def census_problems(n: int, tsv: str) -> list[str]:
    """Check `enumerate --max n --format tsv` output row by row."""
    rows = tsv.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    want = canonical_fractions_upto(n)
    got = []
    problems = []
    for line in rows:
        cols = line.split("\t")
        if len(cols) != 4:
            problems.append(f"malformed row {line[:60]!r}")
            continue
        alpha, beta, count = int(cols[0]), int(cols[1]), int(cols[2])
        got.append((alpha, beta))
        words = [tuple(map(int, w.split())) for w in cols[3].split(";")] if cols[3] else []
        problems += witness_problems(alpha, beta, count, [syllables(w) for w in words])
    if got != want:
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        problems.append(
            f"rows are not the {len(want)} canonical fractions in order: "
            f"{len(got)} rows, missing {missing}, unexpected {extra}"
        )
    return problems


def identify_problems(kind: str, word, expected, answer) -> list[str]:
    """Check one identify_closure answer.

    ``answer`` is None or (alpha, beta, mirrored, matched_witness).  Built
    inputs must be named as the fraction they were built from; any answer
    must have alpha equal to the word's determinant, and its matched witness
    must share the word's exponent sum and Burau trace up to mirror.
    """
    sylls = syllables(word)
    if answer is None:
        if expected is not None:
            return [f"{kind}: closure of a {len(word)}-letter word built from b{expected} not recognised"]
        return []
    alpha, beta, _, matched = answer
    problems = []
    if expected is not None and (alpha, beta) != canonical_pair(*expected):
        problems.append(f"{kind}: answer b({alpha},{beta}) for a word built from b{expected}")
    det = closure_det(sylls)
    if alpha != det:
        problems.append(f"{kind}: answer alpha {alpha}, word determinant {det}")
    m = syllables(matched)
    if closure_det(m) != alpha:
        problems.append(f"{kind}: matched witness determinant {closure_det(m)} != {alpha}")
    fingerprint = (exponent_sum(m), trace(m))
    mirrored = mirror_syllables(sylls)
    if fingerprint not in ((exponent_sum(sylls), trace(sylls)), (exponent_sum(mirrored), trace(mirrored))):
        problems.append(f"{kind}: matched witness exponent sum and trace differ from the word's")
    return problems
