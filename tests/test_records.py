"""The result records are immutable values that survive pickling: a pooled
audit sends each ``OracleResult`` back from its worker pickled."""

import pickle

import pytest

from mpturan.bounds import _BY_NAME, best_known_bounds
from mpturan.constructions import sliced_blowup
from mpturan.oracle import oracle_f
from mpturan.verifier import certify


def _records():
    report = best_known_bounds(5, 7, 3)
    built = sliced_blowup(3, 5, 3)
    certificate = certify(built.graph, [("kfree", 4), ("colorable", 3)])
    return {
        "_Family": _BY_NAME["balanced-blowup"],
        "Bound": report.lower_bounds[0],
        "BoundReport": report,
        "ConstructionOutput": built,
        "OracleResult": oracle_f(1, 4, 3),
        "PropertyCheck": certificate.properties[0],
        "Certificate": certificate,
        "ColorPartition": built.coloring,
    }


RECORDS = _records()


def test_each_record_is_of_its_kind():
    assert {name: type(record).__name__ for name, record in RECORDS.items()} == {
        name: name for name in RECORDS
    }


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_survives_a_pickle_round_trip(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment_to_its_fields(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)

