"""The value types are NamedTuples: their reprs, checks and JSON stay fixed.

Each is a tuple of its fields, so it equals a plain tuple of them, iterates
and orders; assigning or deleting a field raises AttributeError.  Importing
the package must not pull in dataclasses or inspect, which once made up
half of its import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gofknots import braid, classify, twobridge, verify
from gofknots.classify import FamilyParams

VALUE_TYPES = [
    twobridge.Fraction,
    twobridge.OrientationClass,
    classify.FamilyParams,
    classify.Witness,
    classify.AxisReport,
    classify.ClosureId,
    braid.NormalForm,
    verify.VerifyBounds,
    verify.Violation,
]


def test_reprs_are_unchanged():
    assert repr(twobridge.Fraction(19, 3)) == "Fraction(alpha=19, beta=3)"
    assert repr(classify.axis_classes(4, 1)) == (
        "AxisReport(fraction=Fraction(alpha=4, beta=1), witnesses=("
        "Witness(syllables=((1, 4), (2, 1)), kind='torus-positive', family=None), "
        "Witness(syllables=((1, 4), (2, -1)), kind='torus-negative', family=None), "
        "Witness(syllables=((1, 1), (2, 2), (1, 1), (2, -1)), kind='flype-family', "
        "family=FamilyParams(family='one', p=1, q=1))), notes=())"
    )
    assert repr(classify.identify_closure((1, 1, 1, 1, 1, 1, 2, 2, 1, -2))) == (
        "ClosureId(fraction=Fraction(alpha=19, beta=3), mirrored=False, "
        "matched_syllables=((1, 6), (2, 2), (1, 1), (2, -1)))"
    )


def test_fraction_still_checks_its_gcd():
    with pytest.raises(twobridge.InvalidFractionError, match=r"gcd\(6, 4\) != 1"):
        twobridge.Fraction(6, 4)
    with pytest.raises(twobridge.InvalidFractionError, match=r"gcd\(6, 4\) != 1"):
        twobridge.Fraction(alpha=6, beta=4)
    with pytest.raises(twobridge.InvalidFractionError, match=r"gcd\(6, 4\) != 1"):
        twobridge.Fraction._make((6, 4))
    with pytest.raises(twobridge.InvalidFractionError, match=r"gcd\(6, 4\) != 1"):
        twobridge.Fraction(6, 1)._replace(beta=4)
    assert twobridge.Fraction(6, 1)._replace(beta=5) == twobridge.Fraction(6, 5)


@pytest.mark.parametrize("pair,count,family", [
    ((4, 1), 3, FamilyParams("one", 1, 1)),
    ((7, 1), 2, None),
    ((17, 5), 1, FamilyParams("one", 2, 3)),
])
def test_report_properties_are_unchanged(pair, count, family):
    # AxisReport.count is a property over the witnesses, not tuple.count
    report = classify.axis_classes(*pair)
    assert report.count == count
    assert report.family == family


def test_violation_json_is_unchanged():
    v = verify.Violation("counts", {"alpha": 11, "beta": 2}, FamilyParams("two", 3, 1), None)
    assert v.as_json() == {
        "suite": "counts",
        "params": {"alpha": 11, "beta": 2},
        "expected": {"family": "two", "p": 3, "q": 1},
        "actual": None,
    }
    assert json.dumps(v.as_json()) == (
        '{"suite": "counts", "params": {"alpha": 11, "beta": 2}, '
        '"expected": {"family": "two", "p": 3, "q": 1}, "actual": null}'
    )
    # a plain tuple is a JSON list, as before
    pair = verify.Violation("counts", {}, (19, 3), twobridge.canonical(19, 16).pair).as_json()
    assert json.dumps(pair["expected"]) == json.dumps(pair["actual"]) == "[19, 3]"


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_fields_refuse_assignment(cls):
    value = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


def test_values_are_tuples_of_their_fields():
    f = twobridge.canonical(19, 16)
    assert f == (19, 3) and tuple(f) == (19, 3) and len(f) == 2
    assert twobridge.Fraction(5, 2) < twobridge.Fraction(5, 3) < (7, 1)
    assert verify.VerifyBounds() == (5000, 2000, 100, 50, 50, verify.DEFAULT_SEED)


def test_import_loads_neither_dataclasses_nor_inspect():
    # compared with the modules present before the import, so a site hook
    # that loads either of them does not count against the package
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gofknots\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"
