"""
The contract of the package's eight value types, all built on
``perm._Record``: construction, defaults, equality, hashing, ``repr``,
read-only fields, ``_trusted`` objects, pickling and copying, and the
``__post_init__`` checks.  The ``repr`` texts are those that the
dataclasses the records replaced printed.
"""
import copy
import pickle

import pytest

from matchdescents import bijection, cyclic, matching, oscillating, perm, symfun, tableau

# (class, fields by keyword in order, repr); a field with a default is left out
SAMPLES = [
    (perm.DescentSet, {"n": 4, "members": frozenset({1, 3})},
     "DescentSet(n=4, members=frozenset({1, 3}), cyclic=False)"),
    (matching.Matching, {"n": 4, "arcs": ((1, 3), (2, 4))}, "Matching(n=4, arcs=((1, 3), (2, 4)))"),
    (tableau.StandardTableau, {"rows": ((1, 2), (3,))}, "StandardTableau(rows=((1, 2), (3,)))"),
    (oscillating.OscillatingTableau, {"shapes": ((), (1,), ())}, "OscillatingTableau(shapes=((), (1,), ()))"),
    (bijection.ShuffleElement, {"word": (2, 1, 3), "k": 1}, "ShuffleElement(word=(2, 1, 3), k=1)"),
    (symfun.Identity, {"flags": ("n",), "check": len},
     "Identity(flags=('n',), check=<built-in function len>, perfect=False)"),
    (symfun.VerifyResult, {"identity": "main0", "params": {"n": 2}, "ok": True},
     "VerifyResult(identity='main0', params={'n': 2}, ok=True, witness_diff=[], counts={}, extra={})"),
    (cyclic.CdesReport, {"set_id": "k=0", "extension_ok": True, "equivariance_ok": True, "non_escher_ok": False},
     "CdesReport(set_id='k=0', extension_ok=True, equivariance_ok=True, non_escher_ok=False, "
     "escher_witnesses=[], orbit_sizes=[])"),
]
# the reports, and their fields whose default is a fresh list or dict
REPORT_DEFAULTS = {
    symfun.VerifyResult: ("witness_diff", "counts", "extra"),
    cyclic.CdesReport: ("escher_witnesses", "orbit_sizes"),
}
MUTABLE = tuple(REPORT_DEFAULTS)
FROZEN = [sample for sample in SAMPLES if sample[0] not in MUTABLE]
ids = [sample[0].__name__ for sample in SAMPLES]
frozen_ids = [sample[0].__name__ for sample in FROZEN]


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=ids)
def test_construction_by_position_and_keyword(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and repr(by_position) == repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


def test_defaults():
    assert perm.DescentSet(3, frozenset()).cyclic is False
    assert perm.DescentSet(3, frozenset({3}), True).cyclic is True
    assert symfun.Identity(("n",), len).perfect is False
    result = symfun.VerifyResult("main0", {}, True)
    assert (result.witness_diff, result.counts, result.extra) == ([], {}, {})
    report = cyclic.CdesReport("k=0", True, True, True)
    assert (report.escher_witnesses, report.orbit_sizes) == ([], [])


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=ids)
def test_a_missing_unknown_extra_or_repeated_argument_is_a_type_error(cls, fields, text):
    first, *_ = fields
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError):
        cls(*fields.values(), *[None] * 7)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=ids)
def test_equality_holds_only_within_one_class(cls, fields, text):
    twin = type("Twin", (cls,), {})
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    assert record != twin(**fields) and twin(**fields) != record
    assert record != tuple(fields.values())
    others = [other(**other_fields) for other, other_fields, _ in SAMPLES if other is not cls]
    assert all(record != other for other in others)


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=frozen_ids)
def test_frozen_records_hash_and_refuse_assignment_and_deletion(cls, fields, text):
    record = cls(**fields)
    assert hash(record) == hash(cls(*fields.values()))
    assert len({record, cls(**fields)}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name]
    with pytest.raises(AttributeError):
        record.other = None


@pytest.mark.parametrize("cls", MUTABLE)
def test_reports_are_unhashable_and_get_their_own_default_lists_and_dicts(cls):
    (fields,) = [f for c, f, _ in SAMPLES if c is cls]
    one, two = cls(**fields), cls(**fields)
    with pytest.raises(TypeError):
        hash(one)
    for name in REPORT_DEFAULTS[cls]:
        mine = getattr(one, name)
        assert mine == getattr(two, name) and not mine and mine is not getattr(two, name)
        mine.append(1) if isinstance(mine, list) else mine.update(n=1)
        assert not getattr(two, name) and not getattr(cls(**fields), name)
    first = next(iter(fields))
    setattr(one, first, "changed")  # a report's fields can be set
    assert getattr(one, first) == "changed" and one != two


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=frozen_ids)
def test_a_trusted_record_equals_the_checked_one(cls, fields, text):
    trusted = perm._trusted(cls, **fields)
    assert type(trusted) is cls and trusted == cls(**fields) and repr(trusted) == text
    assert hash(trusted) == hash(cls(**fields))
    assert pickle.loads(pickle.dumps(trusted)) == copy.deepcopy(trusted) == trusted


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=ids)
def test_pickle_and_deepcopy_round_trips(cls, fields, text):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: perm.DescentSet(3, frozenset({3})),
        lambda: perm.DescentSet(3, frozenset({4}), True),
        lambda: matching.Matching(-1, ()),
        lambda: matching.Matching(4, ((2, 2),)),
        lambda: matching.Matching(4, ((1, 2), (2, 3))),
        lambda: matching.Matching(4, ((1, 5),)),
        lambda: tableau.StandardTableau(((1, 2), (3, 4, 5))),
        lambda: tableau.StandardTableau(((1, 1),)),
        lambda: tableau.StandardTableau(((2, 1),)),
        lambda: tableau.StandardTableau(((1, 3), (2, 1))),
        lambda: tableau.StandardTableau(((2, 3), (1,))),
        lambda: oscillating.OscillatingTableau(((1,),)),
        lambda: oscillating.OscillatingTableau(((), (1,))),
        lambda: bijection.ShuffleElement((1, 1, 3), 1),
        lambda: bijection.ShuffleElement((1, 2, 3), 4),
        lambda: bijection.ShuffleElement((3, 2, 1), 2),
        lambda: bijection.ShuffleElement((1, 2, 3), 1),
    ],
)
def test_each_post_init_check_still_refuses(build):
    with pytest.raises(ValueError):
        build()
