"""The package's ten immutable records: construction, validation, repr,
equality, hashing, immutability, copying and their derived properties.

The tests pin what callers can observe, not how a record is built, so they
hold for any implementation that keeps these behaviours.
"""

import copy
import math
import pickle
import re
from types import MappingProxyType

import pytest

from ratiosect.active_search import BracketTriple
from ratiosect.benchsuite import (
    BenchFunction,
    BenchReport,
    BenchRow,
    MethodSpec,
    ReferenceMinimizer,
)
from ratiosect.core import FunctionClass, Interval, Point2, Tolerance
from ratiosect.polyfit import LinearSystem, Polynomial
from ratiosect.section_search import RatioConfig


def _square(x):
    return x * x


_COUNTS = MappingProxyType({"bisect": 4})
_ROW = BenchRow("bisect", 1, 4, 0.5, 1.0, "constant", "converged")
_TRIPLE = (Point2(0.0, 2.0), Point2(1.0, 1.0), Point2(2.0, 3.0))

# (class, field names, positional arguments, repr, picklable)
_RECORDS = [
    (Interval, "lo hi", (-1.0, 3.0), "Interval(lo=-1.0, hi=3.0)", True),
    (Tolerance, "epsilon floor max_evaluations", (1e-6, 1e-12, 50),
     "Tolerance(epsilon=1e-06, floor=1e-12, max_evaluations=50)", True),
    (RatioConfig, "c", (0.25,), "RatioConfig(c=0.25)", True),
    (BracketTriple, "left mid right", _TRIPLE,
     "BracketTriple(left=Point2(x=0.0, y=2.0), mid=Point2(x=1.0, y=1.0), "
     "right=Point2(x=2.0, y=3.0))", True),
    (Polynomial, "coefficients", ((1.0, -2.0, 0.5),),
     "Polynomial(coefficients=(1.0, -2.0, 0.5))", True),
    (LinearSystem, "matrix rhs", (((2.0, 1.0), (1.0, 3.0)), (1.0, 2.0)),
     "LinearSystem(matrix=((2.0, 1.0), (1.0, 3.0)), rhs=(1.0, 2.0))", True),
    (BenchFunction,
     "fid expression interval class_label reference_counts evaluator",
     (1, "1", Interval(0.0, 1.0), FunctionClass.CONSTANT, _COUNTS, _square),
     "BenchFunction(fid=1, expression='1', interval=Interval(lo=0.0, hi=1.0), "
     "class_label=<FunctionClass.CONSTANT: 'constant'>, "
     f"reference_counts=mappingproxy({{'bisect': 4}}), evaluator={_square!r})",
     False),
    (ReferenceMinimizer, "x f plateau", (0.5, 1.25, Interval(0.25, 0.75)),
     "ReferenceMinimizer(x=0.5, f=1.25, plateau=Interval(lo=0.25, hi=0.75))",
     True),
    (MethodSpec, "name c", ("ratio-p", 0.3), "MethodSpec(name='ratio-p', c=0.3)",
     True),
    (BenchReport, "rows totals ratios", ((_ROW,), {"bisect": 4}, {}),
     "BenchReport(rows=(BenchRow(method='bisect', fid=1, evaluations=4, "
     "x_min=0.5, f_min=1.0, classification='constant', status='converged'),), "
     "totals={'bisect': 4}, ratios={})", True),
]
# (class, positional arguments, the same as keywords, repr, picklable)
RECORDS = [(cls, args, dict(zip(names.split(), args)), text, picklable)
           for cls, names, args, text, picklable in _RECORDS]
IDS = [record[0].__name__ for record in RECORDS]
PICKLABLE = [record for record in RECORDS if record[4]]
HASHABLE = [record for record in RECORDS
            if record[0] not in (BenchFunction, BenchReport)]


@pytest.mark.parametrize("cls,args,kwargs,text,_", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text, _):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    for name, value in kwargs.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls,args,kwargs,text,_", RECORDS, ids=IDS)
def test_repr(cls, args, kwargs, text, _):
    assert repr(cls(*args)) == text


def test_defaults():
    assert Tolerance() == Tolerance(1e-5, 1e-10, 1000)
    assert (Tolerance().epsilon, Tolerance().floor,
            Tolerance().max_evaluations) == (1e-5, 1e-10, 1000)
    assert Tolerance(max_evaluations=7) == Tolerance(1e-5, 1e-10, 7)
    assert MethodSpec("bisect").c is None
    assert MethodSpec("bisect") == MethodSpec("bisect", None)


@pytest.mark.parametrize("cls,args,kwargs,text,_", RECORDS, ids=IDS)
def test_equality_is_over_the_fields_and_the_class(cls, args, kwargs, text, _):
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record != args and not record == args
    assert record != object()


def test_records_with_different_fields_differ():
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
    assert Tolerance() != Tolerance(floor=1e-9)
    assert RatioConfig(0.2) != RatioConfig(0.3)
    assert MethodSpec("ratio-p") != MethodSpec("ratio-p", 0.2)
    assert Polynomial((1.0,)) != Polynomial((1.0, 0.0))
    # Same fields, different record classes.
    assert ReferenceMinimizer(0.0, 1.0, None) != Interval(0.0, 1.0)


@pytest.mark.parametrize("cls,args,kwargs,text,_", HASHABLE,
                         ids=[r[0].__name__ for r in HASHABLE])
def test_hash_is_the_hash_of_the_fields(cls, args, kwargs, text, _):
    record = cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(args)
    assert {record: 1}[cls(**kwargs)] == 1


@pytest.mark.parametrize("record", [
    BenchFunction(1, "1", Interval(0.0, 1.0), FunctionClass.CONSTANT, _COUNTS,
                  _square),
    BenchReport((_ROW,), {"bisect": 4}, {}),
], ids=["BenchFunction", "BenchReport"])
def test_a_record_with_an_unhashable_field_is_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls,args,kwargs,text,_", RECORDS, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(cls, args, kwargs, text, _):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is kwargs[name]
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("cls,args,kwargs,text,_", RECORDS, ids=IDS)
def test_copy_gives_an_equal_record(cls, args, kwargs, text, _):
    record = cls(*args)
    copied = copy.copy(record)
    assert copied == record and type(copied) is cls


@pytest.mark.parametrize("cls,args,kwargs,text,_", PICKLABLE,
                         ids=[r[0].__name__ for r in PICKLABLE])
def test_deepcopy_and_pickle_give_an_equal_record(cls, args, kwargs, text, _):
    record = cls(*args)
    copied = copy.deepcopy(record)
    assert copied == record and type(copied) is cls
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert loaded == record and type(loaded) is cls
        assert repr(loaded) == text


# ----------------------------------------------------------------- validation

@pytest.mark.parametrize("make,message", [
    (lambda: Interval(math.nan, 1.0), "non-finite interval [nan, 1.0]"),
    (lambda: Interval(0.0, math.inf), "non-finite interval [0.0, inf]"),
    (lambda: Interval(1.0, 1.0), "empty interval [1.0, 1.0]"),
    (lambda: Interval(2.0, 1.0), "empty interval [2.0, 1.0]"),
    (lambda: Tolerance(epsilon=0.0), "epsilon must be in (0, 1), got 0.0"),
    (lambda: Tolerance(epsilon=1.0), "epsilon must be in (0, 1), got 1.0"),
    (lambda: Tolerance(epsilon=math.nan), "epsilon must be in (0, 1), got nan"),
    (lambda: Tolerance(max_evaluations=0),
     "max_evaluations must be a positive integer"),
    (lambda: Tolerance(max_evaluations=2.0),
     "max_evaluations must be a positive integer"),
    (lambda: RatioConfig(0.0), "section ratio must be in (0, 1), got 0.0"),
    (lambda: RatioConfig(1.0), "section ratio must be in (0, 1), got 1.0"),
    (lambda: BracketTriple(_TRIPLE[1], _TRIPLE[0], _TRIPLE[2]),
     "abscissas not ordered: 1.0, 0.0, 2.0"),
    (lambda: BracketTriple(Point2(0.0, 1.0), Point2(1.0, 1.0), Point2(2.0, 3.0)),
     "middle ordinate is not strictly the lowest"),
    (lambda: Polynomial(()), "a polynomial needs at least one coefficient"),
    (lambda: LinearSystem(((1.0, 2.0),), (1.0,)),
     "matrix must be square and agree with rhs length"),
    (lambda: LinearSystem(((1.0,),), (1.0, 2.0)),
     "matrix must be square and agree with rhs length"),
    (lambda: MethodSpec("newton"), "unknown method 'newton'"),
    (lambda: MethodSpec("bisect", 0.2), "method 'bisect' takes no ratio parameter"),
], ids=lambda value: value if isinstance(value, str) else "")
def test_validation_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("floor", [0.0, -1e-10, math.nan])
def test_floor_must_be_positive(floor):
    with pytest.raises(ValueError, match=r"^floor must be positive"):
        Tolerance(floor=floor)


# ------------------------------------------------------- derived properties

def test_interval_width_midpoint_and_containment():
    iv = Interval(-1.0, 3.0)
    assert (iv.width, iv.midpoint) == (4.0, 1.0)
    assert -1.0 in iv and 3.0 in iv and 0.5 in iv
    assert -1.5 not in iv and 3.5 not in iv


def test_polynomial_degree_and_value():
    p = Polynomial((1.0, -2.0, 0.5))
    assert p.degree == 2
    assert p(2.0) == 1.0 - 4.0 + 2.0
    assert Polynomial((3.0,)).degree == 0 and Polynomial((3.0,))(7.0) == 3.0


@pytest.mark.parametrize("spec,label,effective_c,key", [
    (MethodSpec("bisect"), "bisect", None, "bisect"),
    (MethodSpec("golden"), "golden", None, "golden"),
    (MethodSpec("brent"), "brent", None, "brent"),
    (MethodSpec("ratio-p"), "ratio-p(c=0.2)", 0.2, "ratio_p_c02"),
    (MethodSpec("ratio-p", 0.5), "ratio-p(c=0.5)", 0.5, "ratio_p_c05"),
    (MethodSpec("ratio-p", 0.3), "ratio-p(c=0.3)", 0.3, None),
    (MethodSpec("ratio-a"), "ratio-a(c=0.001)", 0.001, "ratio_a_c001"),
    (MethodSpec("brent-m"), "brent-m(c=0.2)", 0.2, "brent_m_c02"),
    (MethodSpec("brent-m", 0.1), "brent-m(c=0.1)", 0.1, None),
], ids=lambda value: value.label if isinstance(value, MethodSpec) else "")
def test_method_spec_label_effective_c_and_reference_key(spec, label,
                                                         effective_c, key):
    assert spec.label == label
    assert spec.effective_c == effective_c
    assert spec.reference_key == key
