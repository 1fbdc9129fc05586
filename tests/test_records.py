"""The record base: fields, construction, equality, hashing, repr, freezing, copies."""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from pathlib import Path

import pytest

import latring.cli  # noqa: F401  (imports every module that defines records)
from latring import EvSeq, FinVec, InvalidElement, MatrixHom, Space, SpaceKind, TopologyId
from latring.audits import CheckResult, LawInstance
from latring.extended import CoordBounds
from latring.gallery import CaseReport, SuiteReport
from latring.homs import ConeExtension, ConeMap, OrderBoundedWitness, SeqHom
from latring.homspaces import (
    BoundednessLabel,
    ClassLabel,
    ConvergenceCertificate,
    HomNet,
)
from latring.records import Record
from latring.spaces import FRingVerdict
from latring.topology import (
    FiniteSet,
    HullPreservation,
    ImageSet,
    Interval,
    NbhdSet,
    Neighborhood,
    ReadingVerdict,
    SetDesc,
    SolidHull,
)

_SRC = Path(__file__).resolve().parents[1] / "src"

Q1 = Space.qn(1)
ONE = MatrixHom(((1,),))
NET = HomNet(Q1, Q1, terms=(ONE,))
_verdict = ReadingVerdict(True)
_label = BoundednessLabel(_verdict, ReadingVerdict(False, note="escapes"))
_witness = OrderBoundedWitness(FinVec.of(-1), FinVec.of(1), 25)

# One instance's arguments per record class: the required fields, and keywords
# where a check needs them; every field left out takes its default.
SAMPLES = {
    CheckResult: (("law", True, 3), {}),
    LawInstance: (("q1", Q1), {}),
    CoordBounds: ((((0, F(1)), (1, F(2))),), {}),
    CaseReport: (("A", True, {"x": 1}, {"x": 1}, (), "narrative"), {}),
    SuiteReport: (((), (), True), {}),
    SeqHom: ((EvSeq.of(1, tail=2),), {}),
    ConeMap: ((Q1,), {}),
    ConeExtension: ((ConeMap(Q1, ONE),), {}),
    OrderBoundedWitness: ((FinVec.of(-1), FinVec.of(1), 25), {}),
    ReadingVerdict: ((True,), {}),
    BoundednessLabel: ((_verdict, _verdict), {}),
    ClassLabel: ((_witness, _label, _label, False, None, "note"), {}),
    HomNet: ((Q1, Q1), {"terms": (ONE,)}),
    ConvergenceCertificate: (("nr", True, NET, ONE), {}),
    Space: ((SpaceKind.QN, TopologyId.QN_BOX), {"dim": 2}),
    FRingVerdict: ((True, None, 3, ()), {}),
    Neighborhood: ((TopologyId.QN_BOX, CoordBounds.finite_dim((F(1),))), {}),
    SetDesc: ((Q1,), {}),
    Interval: ((Q1, FinVec.of(0), FinVec.of(1)), {}),
    FiniteSet: ((Q1, (FinVec.of(1),)), {}),
    SolidHull: ((Q1, (FinVec.of(1),)), {}),
    NbhdSet: ((Q1, Neighborhood.box((1,))), {}),
    ImageSet: ((Q1, ONE, FiniteSet(Q1, (FinVec.of(1),))), {}),
    HullPreservation: ((ReadingVerdict(True), ReadingVerdict(False), True), {}),
}


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


# latring's own record classes; other tests define subclasses of their own.
RECORDS = sorted({c for c in _record_classes() if c.__module__.startswith("latring.")}, key=lambda c: c.__qualname__)


def _sample(cls):
    args, kwargs = SAMPLES[cls]
    return cls(*args, **kwargs)


def test_every_record_class_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_contract(cls):
    x = _sample(cls)
    values = tuple(getattr(x, f) for f in cls._fields)
    assert len(cls._fields) == len(set(cls._fields)) >= 1

    if cls.__repr__ is Record.__repr__:
        assert repr(x) == f"{cls.__qualname__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"

    # Equality is class-checked: never equal to the field tuple or to another record class.
    assert x == _sample(cls) and not x != _sample(cls)
    assert x != values and values != x
    for other in RECORDS:
        if other is not cls:
            assert x != _sample(other)

    try:
        want = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want

    # Defaults fill in; a missing, unknown or extra argument is refused.
    args, kwargs = SAMPLES[cls]
    if cls.__init__ is Record.__init__:
        for f in cls._fields[len(args):]:
            if f not in kwargs:
                assert getattr(x, f) == cls._defaults[f]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1, **kwargs)
    with pytest.raises(TypeError):
        cls(*args, *values, **kwargs)

    for name in (*cls._fields, "no_such_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
    for name in cls._fields:
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in cls._fields) == values

    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is cls and clone == x


def test_records_with_equal_fields_of_two_classes_differ():
    points = (FinVec.of(1), FinVec.of(-2))
    assert FiniteSet(Q1, points) != SolidHull(Q1, points)
    assert Interval(Q1, *points[::-1]) != FiniteSet(Q1, points[::-1])


def test_repr_keeps_the_dataclass_format():
    assert repr(ReadingVerdict(True)) == (
        "ReadingVerdict(holds=True, vacuous=False, via=None, refuting=None, bad_set=None, note='')"
    )
    assert repr(Neighborhood.sup_ball(1)) == (
        "Neighborhood(topology=<TopologyId.EVSEQ_SUPNORM: 'evseq_supnorm'>, "
        "bounds=CoordBounds(pins=(), tail=Fraction(1, 1)))"
    )


def test_keyword_and_positional_construction_agree():
    full = ReadingVerdict(True, False, None, None, None, "x")
    assert ReadingVerdict(True, note="x") == ReadingVerdict(holds=True, note="x") == full
    for kwargs, message in [
        ({"holds": False}, "multiple values for argument 'holds'"),
        ({"bogus": 1}, "an unexpected keyword argument 'bogus'"),
    ]:
        with pytest.raises(TypeError, match=message):
            ReadingVerdict(True, **kwargs)
    with pytest.raises(TypeError, match="missing required argument 'holds'"):
        ReadingVerdict(note="x")
    with pytest.raises(TypeError, match="takes 6 arguments but 7 were given"):
        ReadingVerdict(True, False, None, None, None, "x", "y")
    # `__post_init__` runs on every construction: an empty table net is refused.
    with pytest.raises(InvalidElement, match="table nets need at least one term"):
        HomNet(Q1, Q1, terms=())


def test_cli_import_loads_no_code_generation_modules():
    # `-I` ignores PYTHONPATH, so the child puts the sources on its path itself.
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import latring.cli; latring.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, str(_SRC)], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
