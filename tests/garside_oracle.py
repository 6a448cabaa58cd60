"""Garside machinery for B3, kept as an independent test oracle.

The six simples biject with the symmetric group S3, so the structural tables
(maximal transferable prefixes, left complements) are computed here by brute
force over S3 and asserted once at import.  Combing by those tables gives
nf_mul, the product of two normal forms, and folding nf_mul over the letters
of a word gives normal_form.  None of this shares an algorithm with
braid.normal_form, which reads the word once onto a stack, so each checks the
other.

On top of it sits the classical decision procedure for conjugacy in B3:
cycle and decycle a normal form into the super summit set (conjugates of
maximal inf and minimal sup), then close that set up under conjugation by
simples.  Two braids are conjugate exactly when their summit sets coincide.
It checks braid.conjugacy_class, which goes through the Burau image instead.
"""

from __future__ import annotations

import itertools
from functools import reduce

from gofknots.braid import (
    DELTA,
    E,
    S1,
    S12,
    S2,
    S21,
    SIMPLE_WORDS,
    NormalForm,
    Word,
    _TAU,
    check_word,
)

# ---------------------------------------------------------------------------
# the simples as permutations of S3, and their tables
# ---------------------------------------------------------------------------

_GEN_PERM = {1: (1, 0, 2), 2: (0, 2, 1)}


def _compose(a, b):
    # strand starting at i ends at b[a[i]]: apply a, then b
    return (b[a[0]], b[a[1]], b[a[2]])


def _perm_inv(p):
    q = [0, 0, 0]
    for i, x in enumerate(p):
        q[x] = i
    return tuple(q)


def _inversions(p):
    return sum(1 for i, j in itertools.combinations(range(3), 2) if p[i] > p[j])


def _perm_of_word(word):
    p = (0, 1, 2)
    for k in word:
        p = _compose(p, _GEN_PERM[abs(k)])
    return p


_SIMPLE_PERM = {s: _perm_of_word(w) for s, w in SIMPLE_WORDS.items()}
_PERM_SIMPLE = {p: s for s, p in _SIMPLE_PERM.items()}
_LEN = {s: len(w) for s, w in SIMPLE_WORDS.items()}

# left complements: Delta = comp(s) * s, i.e. comp(s) = Delta * s^-1, so
# s^-1 = Delta^-1 * comp(s)
_LEFT_COMP = {}
for _s, _p in _SIMPLE_PERM.items():
    _c = _PERM_SIMPLE[_compose(_SIMPLE_PERM[DELTA], _perm_inv(_p))]
    assert _LEN[_c] + _LEN[_s] == 3
    assert _compose(_SIMPLE_PERM[_c], _p) == _SIMPLE_PERM[DELTA]
    _LEFT_COMP[_s] = _c


def _build_renorm():
    """For each pair (x, y), transfer the maximal simple prefix of y onto x.

    The transferable prefixes of y that keep x * u simple are closed under
    join, so there is a unique maximal one; the pair is left weighted exactly
    when that maximum is trivial, i.e. when the transfer leaves x unchanged.
    """
    renorm = [[None] * 6 for _ in range(6)]
    for x, y in itertools.product(range(6), range(6)):
        candidates = []
        for u in range(6):
            quot = _compose(_perm_inv(_SIMPLE_PERM[u]), _SIMPLE_PERM[y])
            if _inversions(quot) != _LEN[y] - _LEN[u]:
                continue  # u is not a prefix of y
            prod = _compose(_SIMPLE_PERM[x], _SIMPLE_PERM[u])
            if _inversions(prod) != _LEN[x] + _LEN[u]:
                continue  # x * u is not simple
            candidates.append((u, _PERM_SIMPLE[prod], _PERM_SIMPLE[quot]))
        top = max(_LEN[u] for u, _, _ in candidates)
        best = [c for c in candidates if _LEN[c[0]] == top]
        assert len(best) == 1, f"maximal transfer not unique for pair ({x}, {y})"
        u, xu, quot = best[0]
        renorm[x][y] = (xu, quot)
    return tuple(map(tuple, renorm))


_RENORM = _build_renorm()

# tau commutes with renormalisation (needed for moving Delta powers around)
for _x, _y in itertools.product(range(6), range(6)):
    _a, _b = _RENORM[_x][_y]
    assert _RENORM[_TAU[_x]][_TAU[_y]] == (_TAU[_a], _TAU[_b])


def _strip(factors: list[int]) -> tuple[int, tuple[int, ...]]:
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == DELTA:
        lo += 1
    while lo < hi and factors[hi - 1] == E:
        hi -= 1
    return lo, tuple(factors[lo:hi])


# ---------------------------------------------------------------------------
# normal forms by combing
# ---------------------------------------------------------------------------

def left_weighted(a: int, b: int) -> bool:
    """The pair (a, b) is left weighted: no prefix of b transfers onto a."""
    return _RENORM[a][b][0] == a


def _merge(left: list[int], right: list[int]) -> tuple[int, tuple[int, ...]]:
    """Product of two already left weighted sequences.

    Violations start at the junction and propagate backwards; combing each
    one back keeps everything to the left weighted, so a single sweep from
    the junction suffices.
    """
    if not left or not right or left_weighted(left[-1], right[0]):
        return _strip(left + right)
    factors = left + right
    for i in range(len(left) - 1, len(factors) - 1):
        a, b = _RENORM[factors[i]][factors[i + 1]]
        if a == factors[i]:
            break
        factors[i], factors[i + 1] = a, b
        for j in range(i - 1, -1, -1):
            a, b = _RENORM[factors[j]][factors[j + 1]]
            if a == factors[j]:
                break
            factors[j], factors[j + 1] = a, b
    return _strip(factors)


def nf_mul(x: NormalForm, y: NormalForm) -> NormalForm:
    """Group multiplication on normal forms.

    The Delta power of y passes left through the factors of x, twisting them
    by tau when it is odd.
    """
    left = list(x.factors) if y.delta_power % 2 == 0 else [_TAU[f] for f in x.factors]
    carry, factors = _merge(left, list(y.factors))
    return NormalForm(x.delta_power + y.delta_power + carry, factors)


_SIMPLE_NF = {s: NormalForm(0, (s,)) for s in (S1, S2, S12, S21)}
_SIMPLE_NF[DELTA] = NormalForm(1, ())
_SIMPLE_INV_NF = {s: NormalForm(-1, (_LEFT_COMP[s],)) for s in (S1, S2, S12, S21)}
_SIMPLE_INV_NF[DELTA] = NormalForm(-1, ())


def normal_form(word: Word) -> NormalForm:
    """The normal form of a word: nf_mul folded over its letters."""
    gen = {1: S1, 2: S2}
    letters = [_SIMPLE_NF[gen[k]] if k > 0 else _SIMPLE_INV_NF[gen[-k]] for k in check_word(word)]
    return reduce(nf_mul, letters, NormalForm(0, ()))


# ---------------------------------------------------------------------------
# cycling, decycling and super summit sets
# ---------------------------------------------------------------------------

def inf(v: NormalForm) -> int:
    return v.delta_power


def sup(v: NormalForm) -> int:
    return v.delta_power + len(v.factors)


def _exponent_sum(v: NormalForm) -> int:
    return 3 * v.delta_power + sum(len(SIMPLE_WORDS[f]) for f in v.factors)


def cycle(v: NormalForm) -> NormalForm:
    """Cycling: conjugate by tau^-d(f_1), giving Delta^d f_2 .. f_l tau^-d(f_1).

    Neither cycling nor decycling can lower inf or raise sup, since the
    result is again Delta^d times l permutation braids.
    """
    if not v.factors:
        return v
    head, tail = v.factors[0], v.factors[1:]
    if v.delta_power % 2:
        head = _TAU[head]
    return nf_mul(NormalForm(v.delta_power, tail), _SIMPLE_NF[head])


def decycle(v: NormalForm) -> NormalForm:
    """Decycling: conjugate by f_l, giving f_l Delta^d f_1 .. f_{l-1}."""
    if not v.factors:
        return v
    body, last = v.factors[:-1], v.factors[-1]
    return nf_mul(_SIMPLE_NF[last], NormalForm(v.delta_power, body))


def _better(a: NormalForm, b: NormalForm) -> bool:
    return inf(a) > inf(b) or sup(a) < sup(b)


def _orbit_improve(v: NormalForm, step) -> tuple[NormalForm, bool]:
    """Iterate step until it strictly improves (inf, -sup) or the orbit closes.

    Cycling and decycling are deterministic, so revisiting a normal form with
    no improvement seen means none is available along this orbit.
    """
    seen = set()
    u = v
    while u not in seen:
        seen.add(u)
        u = step(u)
        if _better(u, v):
            return u, True
    return v, False


def _summit_representative(v: NormalForm) -> NormalForm:
    while True:
        v, cycled = _orbit_improve(v, cycle)
        v, decycled = _orbit_improve(v, decycle)
        if not (cycled or decycled):
            return v


def _conjugates_by_simples(v: NormalForm):
    for s in (S1, S2, S12, S21, DELTA):
        yield nf_mul(nf_mul(_SIMPLE_INV_NF[s], v), _SIMPLE_NF[s])
        yield nf_mul(nf_mul(_SIMPLE_NF[s], v), _SIMPLE_INV_NF[s])


def _summit_closure(v: NormalForm) -> frozenset[NormalForm]:
    # close under conjugation by simples, restarting if anything beats (inf, sup)
    while True:
        seen = {v}
        stack = [v]
        restart = None
        while stack and restart is None:
            u = stack.pop()
            for c in _conjugates_by_simples(u):
                if _better(c, v):
                    restart = c
                    break
                if (inf(c), sup(c)) == (inf(v), sup(v)) and c not in seen:
                    seen.add(c)
                    stack.append(c)
        if restart is None:
            return frozenset(seen)
        v = _summit_representative(restart)


def super_summit_set(word: Word) -> frozenset[NormalForm]:
    """All conjugates of minimal canonical length and maximal Delta power."""
    return _summit_closure(_summit_representative(normal_form(word)))


def is_conjugate(w1: Word, w2: Word) -> bool:
    """Conjugacy decision: summit sets of conjugate elements coincide and of
    non-conjugate elements are disjoint, so one membership test settles it."""
    nf1, nf2 = normal_form(w1), normal_form(w2)
    if nf1 == nf2:
        return True
    if _exponent_sum(nf1) != _exponent_sum(nf2):
        return False
    target = _summit_representative(nf2)
    return target in _summit_closure(_summit_representative(nf1))
