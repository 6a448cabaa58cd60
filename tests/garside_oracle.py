"""Garside super summit set engine, kept as an independent conjugacy oracle.

This is the classical decision procedure for conjugacy in B3: cycle and
decycle a normal form into the super summit set (conjugates of maximal inf
and minimal sup), then close that set up under conjugation by simples.  Two
braids are conjugate exactly when their summit sets coincide.  It shares
only the normal form with the library, so it can check
braid.conjugacy_class, which goes through the Burau image instead.
"""

from __future__ import annotations

from gofknots.braid import (
    DELTA,
    S1,
    S12,
    S2,
    S21,
    NormalForm,
    Word,
    _LEFT_COMP,
    _RENORM,
    _TAU,
    _strip,
    normal_form,
)


def inf(v: NormalForm) -> int:
    return v.delta_power


def sup(v: NormalForm) -> int:
    return v.delta_power + len(v.factors)


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
    if nf1.exponent_sum != nf2.exponent_sum:
        return False
    target = _summit_representative(nf2)
    return target in _summit_closure(_summit_representative(nf1))
