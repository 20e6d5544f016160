"""The immutable-record contract shared by the nine value classes:
fields from the class annotations, class attributes as defaults,
validation on construction and on `replace`, equality and hashing by
type and values, no assignment, and pickling."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from stokesim import protocols
from stokesim.cli import ExperimentConfig
from stokesim.detection import ClickPattern, DetectorSpec, HeraldRule
from stokesim.errors import RegistryError, ValidationError
from stokesim.fock import ModeId, Record
from stokesim.metrics import QubitEncoding
from stokesim.protocols import HeraldedSpec, ProtocolConfig
from stokesim.sources import SourceParams

SRC = pathlib.Path(__file__).parent.parent / "src"

MEMORY_SPEC = {
    name: getattr(protocols.MEMORY, name)
    for name in ("name", "header", "joint_state", "paths", "flip_mode", "fidelity", "fidelity_key", "exact_keys")
}

#: class, every field in declaration order, the fields without a default,
#: a valid change, and an invalid change with the error it raises (or None)
RECORDS = [
    (
        ModeId,
        dict(name="S1", kind="atomic", path=None, pol=None),
        ("name", "kind"),
        dict(name="S2"),
        (dict(pol="H"), RegistryError),
    ),
    (
        DetectorSpec,
        dict(efficiency=0.5, dark_prob=0.01, resolving=False),
        (),
        dict(dark_prob=0.02),
        (dict(efficiency=1.5), ValidationError),
    ),
    (
        ClickPattern,
        dict(clicks=frozenset({"D_H", "D_V'"}), counts=(1, 2)),
        ("clicks",),
        dict(counts=()),
        None,
    ),
    (
        HeraldRule,
        dict(patterns=((frozenset({"D_H", "D_V'"}), "PsiMinus"),)),
        ("patterns",),
        dict(patterns=()),
        None,
    ),
    (
        QubitEncoding,
        dict(modes=("S1", "S2"), zero=(1, 0), one=(0, 1)),
        ("modes", "zero", "one"),
        dict(zero=(2, 0)),
        (dict(one=(1, 0)), ValidationError),
    ),
    (
        SourceParams,
        dict(p0=0.05, emission_order=2, alpha=0.6, beta=0.8j, t=None),
        (),
        dict(t=0.5),
        (dict(p0=0.5), ValidationError),
    ),
    (
        ProtocolConfig,
        dict(
            source=SourceParams(p0=0.02),
            detector=DetectorSpec(efficiency=0.9),
            trials=5,
            mode="sampled",
            seed=3,
            theta=0.1,
            phi=0.2,
            epr_enabled=False,
            retrieval_efficiency=0.5,
            cutoff=8,
        ),
        (),
        dict(seed=4),
        (dict(source=SourceParams(emission_order=5)), ValidationError),
    ),
    (
        HeraldedSpec,
        MEMORY_SPEC,
        tuple(MEMORY_SPEC),
        dict(flip_mode="S1"),
        None,
    ),
    (
        ExperimentConfig,
        dict(
            config=ProtocolConfig(),
            protocol="memory",
            sweep_parameter="p0",
            sweep_values=(0.01, 0.02),
            out=None,
            format="csv",
            jobs=2,
        ),
        ("config",),
        dict(jobs=3),
        None,
    ),
]

VALIDATING = [(cls, fields, bad) for cls, fields, _, _, bad in RECORDS if bad is not None]


def _ids(case):
    return case.__name__ if isinstance(case, type) else None


records = pytest.mark.parametrize("cls, fields, required, change, bad", RECORDS, ids=_ids)


def _twin(fields):
    """Another record type with the same field names and no checks."""
    return type("Twin", (Record,), {"__annotations__": dict.fromkeys(fields, "object")})


def test_every_record_class_of_the_package_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("stokesim.")}
    assert package == {cls for cls, *_ in RECORDS} and len(package) == 9


@records
def test_positional_and_keyword_construction_agree(cls, fields, required, change, bad):
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    n = len(fields) // 2
    assert cls(*list(fields.values())[:n], **dict(list(fields.items())[n:])) == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value


@records
def test_missing_fields_raise_and_defaults_come_from_the_class(cls, fields, required, change, bad):
    for name in required:
        with pytest.raises(TypeError, match=name):
            cls(**{k: v for k, v in fields.items() if k != name})
    minimal = cls(**{k: fields[k] for k in required})
    for name in fields:
        if name not in required:
            assert getattr(minimal, name) == getattr(cls, name)


@records
def test_unknown_repeated_and_extra_arguments_raise(cls, fields, required, change, bad):
    values = list(fields.values())
    with pytest.raises(TypeError, match="bogus"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(values[0], **fields)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError, match="bogus"):
        cls(**fields).replace(bogus=1)


@records
def test_a_range_table_names_fields_and_stays_off_the_instance(cls, fields, required, change, bad):
    assert set(cls._ranges) <= set(cls._fields)
    assert "_ranges" not in cls(**fields).__dict__


@records
def test_equality_and_hash_by_type_and_values(cls, fields, required, change, bad):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    changed = a.replace(**change)
    assert changed != a
    assert {a: 1}[b] == 1
    twin = _twin(fields)(**fields)
    assert a != twin and twin != a
    assert a != tuple(fields.values())


@records
def test_replace_builds_a_changed_copy(cls, fields, required, change, bad):
    a = cls(**fields)
    changed = a.replace(**change)
    assert type(changed) is cls
    assert changed == cls(**{**fields, **change})
    assert a == cls(**fields)
    assert a.replace() == a


@records
def test_assignment_and_deletion_raise(cls, fields, required, change, bad):
    a = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**fields)


@pytest.mark.parametrize("cls, fields, bad", VALIDATING, ids=_ids)
def test_invalid_values_raise_on_construction_and_replace(cls, fields, bad):
    changes, error = bad
    with pytest.raises(error):
        cls(**{**fields, **changes})
    with pytest.raises(error):
        cls(**fields).replace(**changes)


@records
def test_pickle_round_trip(cls, fields, required, change, bad):
    a = cls(**fields)
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls
    assert b == a and hash(b) == hash(a)
    # the fields in order, each value of its type; a rebuilt frozenset may
    # list its members in another order, so repr is not compared
    assert list(vars(b)) == list(vars(a)) == list(cls._fields)
    assert [type(v) for v in vars(b).values()] == [type(v) for v in vars(a).values()]


def test_repr_names_the_fields_in_order():
    mode = ModeId("S1", "atomic")
    assert repr(mode) == "ModeId(name='S1', kind='atomic', path=None, pol=None)"


def test_protocol_config_defaults_are_shared_immutable_instances():
    a, b = ProtocolConfig(), ProtocolConfig()
    assert a.source is b.source and a.source == SourceParams()
    assert a.detector is b.detector and a.detector == DetectorSpec()
    assert a.replace(seed=1).source is a.source


def test_importing_the_cli_leaves_dataclasses_unimported():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, stokesim.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
