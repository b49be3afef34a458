"""The public record types: field order and defaults, properties, that no
field can be assigned, and that a record is a value but not a tuple."""

from pathlib import Path

import pytest

from insets import oeis
from insets.identities import Counterexample, GridReport
from insets.oeis import BFile, CacheConfig, default_config
from insets.registry import SequenceEntry, SequenceSlice, ValidationReport

PACKAGED_FIXTURES = Path(oeis.__file__).resolve().parent / "fixtures"

# each record with its required fields, then its defaulted fields and their
# defaults, all in signature order
RECORDS = [
    (Counterexample, ("params", "lhs", "rhs"), {}),
    (GridReport, ("identity", "m_max", "n_max", "passed", "counterexample"), {}),
    (
        SequenceEntry,
        ("key", "fixture_id", "description", "terms"),
        {"start": 0, "closed_form": None},
    ),
    (SequenceSlice, ("key", "start", "values"), {}),
    (
        ValidationReport,
        ("key", "fixture_id", "status", "offset", "agreed"),
        {"mismatch": None},
    ),
    (BFile, ("oeis_id", "entries"), {}),
    (
        CacheConfig,
        (),
        {"fixture_dir": PACKAGED_FIXTURES},
    ),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record,required,defaults", RECORDS, ids=IDS)
def test_fields_in_order_with_their_defaults(record, required, defaults):
    fields = [*required, *defaults]
    made = record(*range(len(fields)))
    assert vars(made) == dict(zip(fields, range(len(fields))))
    made = record(*range(len(required)))
    assert vars(made) == {**dict(zip(required, range(len(required)))), **defaults}
    with pytest.raises(TypeError):
        record(*range(len(fields) + 1))
    with pytest.raises(TypeError):
        record(**{**vars(made), "unknown": 0})
    if required:
        with pytest.raises(TypeError):
            record(*range(len(required) - 1))


@pytest.mark.parametrize("record,required,defaults", RECORDS, ids=IDS)
def test_a_record_is_a_value_but_not_a_tuple(record, required, defaults):
    made = record(*range(len(required)))
    same = record(**vars(made))
    assert same == made and not same != made
    assert hash(same) == hash(made)
    if required:
        assert record(*range(1, len(required) + 1)) != made
    # code that takes any tuple for a (code, stdout, ...) process result, such
    # as the benchmark's worker, must not take a record for one
    assert not isinstance(made, tuple)
    assert made != tuple(vars(made).values())
    with pytest.raises(TypeError):
        iter(made)


@pytest.mark.parametrize("record,required,defaults", RECORDS, ids=IDS)
def test_no_field_can_be_assigned(record, required, defaults):
    made = record(*range(len(required)))
    for name in (*required, *defaults):
        with pytest.raises(AttributeError):
            setattr(made, name, "changed")


def test_sequence_entry_oeis_id():
    def terms(i):
        return iter(())

    assert SequenceEntry("delannoy", "A008288", "", terms).oeis_id == "A008288"
    assert SequenceEntry("cells", "cell_counts", "", terms).oeis_id is None
    # the rule oeis.bfile_name and oeis.load apply: A and six digits
    assert SequenceEntry("short", "A12", "", terms).oeis_id is None
    assert SequenceEntry("aztec", "Aztec_cells", "", terms).oeis_id is None


def test_validation_report_validated():
    assert ValidationReport("k", "A000001", "validated", 0, 15).validated is True
    assert ValidationReport("k", "A000001", "provisional", 0, 3).validated is False


def test_bfile_properties_and_length():
    bfile = BFile("A000045", ((2, 1), (3, 2), (4, 3)))
    assert bfile.first_index == 2
    assert bfile.values == [1, 2, 3]
    assert len(bfile) == len(bfile.entries) == 3
    assert len(BFile("A000045", ())) == 0
    assert repr(bfile) == "BFile(oeis_id='A000045', entries=((2, 1), (3, 2), (4, 3)))"


def test_records_of_different_types_differ():
    assert Counterexample((1,), 2, 3) == Counterexample((1,), 2, 3)
    assert SequenceSlice("k", 0, [1]) != ValidationReport("k", 0, [1], 0, 0)
    with pytest.raises(TypeError):
        hash(SequenceSlice("k", 0, [1]))  # a list field makes a record unhashable


def test_cache_config_fixture_dir(monkeypatch, tmp_path):
    assert CacheConfig().fixture_dir == PACKAGED_FIXTURES
    assert (PACKAGED_FIXTURES / "b008288.txt").is_file()
    monkeypatch.delenv(oeis.ENV_FIXTURE_DIR, raising=False)
    assert default_config().fixture_dir == PACKAGED_FIXTURES
    monkeypatch.setenv(oeis.ENV_FIXTURE_DIR, str(tmp_path))
    assert default_config().fixture_dir == tmp_path
