"""Differential test: the slotted report records against frozen dataclasses.

The six report types are ``__slots__`` classes over
``equivalences._Record`` so that no ``diagcalc`` module imports
:mod:`dataclasses`, and so are the two records of the Green's-relations
references in ``test_green_reference``.  The frozen dataclasses they
replaced are kept below,
field for field, as the oracle: for instances the library really builds,
and for variants that differ in one field, both sides must agree on
``==``, ``hash``, ``repr``, ``to_dict`` and construction, both must
refuse assignment, and both must raise ``TypeError`` on the same bad
arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import pytest

from diagcalc import engine, laws, partitions, presentations
import test_green_reference as green_reference
from diagcalc.engine import closure, from_elements
from diagcalc.equivalences import _Record
from diagcalc.laws import check_grrac
from diagcalc.partitions import Diagram, family
from diagcalc.presentations import enumerate_presented, schema, verify_presentation


@dataclass(frozen=True)
class CheckReport:
    name: str
    holds: bool
    witness: tuple[str, ...] | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "counts": dict(sorted(self.counts.items())),
        }


@dataclass(frozen=True)
class GreenClasses:
    r_class_of: tuple[int, ...]
    l_class_of: tuple[int, ...]
    j_class_of: tuple[int, ...]
    h_class_of: tuple[int, ...]


@dataclass(frozen=True)
class BandReport:
    band: bool
    left_regular: bool
    right_regular: bool
    semilattice: bool
    l_trivial: bool
    r_trivial: bool


@dataclass(frozen=True)
class Structure:
    transversals: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    upper_blocks: tuple[tuple[int, ...], ...]
    lower_blocks: tuple[tuple[int, ...], ...]
    rank: int
    dom: tuple[int, ...]
    codom: tuple[int, ...]


@dataclass(frozen=True)
class Membership:
    permutation: bool
    transformation: bool
    order_preserving: bool
    partial_injection: bool
    block_bijection: bool
    uniform_block_bijection: bool
    projection: bool
    full_domain: bool
    planar: bool
    planar_full_domain: bool
    cap: bool


@dataclass(frozen=True)
class Presentation:
    name: str
    n: int
    kind: str
    alphabet: tuple[str, ...]
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    images: tuple[Diagram, ...] = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "kind": self.kind,
            "alphabet": list(self.alphabet),
            "relations": [[list(lhs), list(rhs)] for lhs, rhs in self.relations],
        }


@dataclass(frozen=True)
class EnumerationResult:
    status: str
    size: int | None
    table: tuple[tuple[int, ...], ...] | None
    node_budget_used: int


@dataclass(frozen=True)
class PresentationReport:
    name: str
    n: int
    status: str
    sound: bool
    witness: tuple[str, ...] | None
    target_size: int
    closure_size: int | None
    enumerated_size: int | None
    node_budget_used: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "status": self.status,
            "sound": self.sound,
            "witness": list(self.witness) if self.witness else None,
            "target_size": self.target_size,
            "closure_size": self.closure_size,
            "enumerated_size": self.enumerated_size,
            "node_budget_used": self.node_budget_used,
        }


ORACLES = {
    engine.CheckReport: CheckReport,
    green_reference.GreenClasses: GreenClasses,
    green_reference.BandReport: BandReport,
    partitions.Structure: Structure,
    partitions.Membership: Membership,
    presentations.Presentation: Presentation,
    presentations.EnumerationResult: EnumerationResult,
    presentations.PresentationReport: PresentationReport,
}


def samples() -> list:
    """Records as the library builds them, a few of each type."""
    p2 = from_elements(2, family("pnfd", 2))
    out = [*check_grrac(from_elements(2, family("ppnfd", 2)))]
    green, band_type = green_reference.ref_green, green_reference.ref_band_type
    out += [green(p2), green(closure(3, [partitions.merge(3, 1, 2)])), band_type(p2)]
    out += [band_type(from_elements(2, family("en", 2)))]
    for text in ("[[1,2,-1],[3,-2],[-3]]", "[[1,-1],[2,-2]]", "[[1],[2,-1,-2]]"):
        d = Diagram.from_text(text)
        out += [d.structure(), d.classify()]
    out += [schema("dn", 3), schema("sing-tn", 3)]
    out += [enumerate_presented(schema("dn", 3)), enumerate_presented(schema("dn", 3), budget=2)]
    out += [verify_presentation("dn", 3), verify_presentation("full-yq", 3, budget=20)]
    return out


def field_names(record) -> list[str]:
    return [f.name for f in dataclasses.fields(ORACLES[type(record)])]


def as_kwargs(record) -> dict:
    return {name: getattr(record, name) for name in field_names(record)}


def variants(record) -> list:
    """The record itself and one copy per field with that field changed."""
    kwargs = as_kwargs(record)
    out = [kwargs]
    for name, value in kwargs.items():
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, int):
            changed = value + 1
        elif isinstance(value, str):
            changed = value + "x"
        elif isinstance(value, dict):
            changed = {**value, "extra": 1}
        elif value:
            changed = value[:-1]
        else:
            changed = ("x",)
        out.append({**kwargs, name: changed})
    return out


RECORDS = samples()
IDS = [f"{type(r).__name__}-{k}" for k, r in enumerate(RECORDS)]


def test_every_record_type_is_sampled():
    assert {type(r) for r in RECORDS} == set(ORACLES)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_matches_its_dataclass(record):
    new, old = type(record), ORACLES[type(record)]
    cases = variants(record)
    for kwargs in cases:
        a, b = new(**kwargs), old(**kwargs)
        assert repr(a) == repr(b)
        assert new(*kwargs.values()) == a and repr(new(*kwargs.values())) == repr(a)
        try:
            expected = hash(b)
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == expected
        if hasattr(old, "to_dict"):
            assert a.to_dict() == b.to_dict()
        assert a != b and b != a
        # equality needs the very class, not a subclass with equal fields
        sub = type(new.__name__, (new,), {"__slots__": new.__slots__})(**kwargs)
        old_sub = type(old.__name__, (old,), {})(**kwargs)
        assert (a == sub, sub == a) == (b == old_sub, old_sub == b) == (False, False)
        for other in cases:
            assert (a == new(**other)) == (b == old(**other))
            assert (a != new(**other)) == (b != old(**other))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_raises(record):
    old = ORACLES[type(record)](**as_kwargs(record))
    for name in field_names(record):
        with pytest.raises(AttributeError):
            setattr(old, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1  # type: ignore[attr-defined]


def test_defaults_match():
    assert repr(engine.CheckReport("c", True)) == repr(CheckReport("c", True))
    first, second = engine.CheckReport("c", True), engine.CheckReport("c", True)
    assert first.counts == {} and first.counts is not second.counts
    pres = presentations.Presentation("p", 1, "monoid", ("a",), ())
    assert pres.images == () and repr(pres) == repr(Presentation("p", 1, "monoid", ("a",), ()))
    for new in ORACLES:
        with pytest.raises(TypeError):
            new()


def test_presentation_images_are_not_part_of_the_value():
    pres = schema("dn", 3)
    bare = presentations.Presentation(pres.name, pres.n, pres.kind, pres.alphabet, pres.relations)
    assert pres.images and bare.images == ()
    assert pres == bare and hash(pres) == hash(bare) and repr(pres) == repr(bare)
    old = Presentation(pres.name, pres.n, pres.kind, pres.alphabet, pres.relations, pres.images)
    assert repr(pres) == repr(old) and hash(pres) == hash(old)


def required_names(record) -> list[str]:
    return [f.name for f in dataclasses.fields(ORACLES[type(record)])
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_bad_arguments_raise_on_both(record):
    new, old = type(record), ORACLES[type(record)]
    kwargs = as_kwargs(record)
    values = list(kwargs.values())
    last = field_names(record)[-1]
    cases = [
        ((*values, None), {}),  # too many positional fields
        ((), {**kwargs, "unknown": 1}),
        ((*values[:1],), kwargs),  # the first field by position and by keyword
        ((*values,), {last: values[-1]}),
    ]
    assert required_names(record)
    for name in required_names(record):
        cases.append(((), {k: v for k, v in kwargs.items() if k != name}))
    for args, kw in cases:
        with pytest.raises(TypeError):
            old(*args, **kw)
        with pytest.raises(TypeError):
            new(*args, **kw)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_omitted_fields_take_their_defaults(record):
    new, old = type(record), ORACLES[type(record)]
    required = {name: getattr(record, name) for name in required_names(record)}
    assert repr(new(**required)) == repr(old(**required))
    values = list(required.values())
    assert new(*values) == new(**required) and repr(new(*values)) == repr(old(*values))


def record_classes() -> list[type]:
    out, stack = [], [_Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("diagcalc."):
                out.append(cls)
                stack.append(cls)
    return out


def test_defaults_name_their_own_fields():
    classes = record_classes()
    references = {green_reference.GreenClasses, green_reference.BandReport}
    assert set(ORACLES) | {laws.LeftCongruence} == set(classes) | references
    for cls in classes + sorted(references, key=lambda cls: cls.__name__):
        # a misspelt key would leave its field required
        assert set(cls._defaults) <= set(cls.__slots__), cls.__name__
        assert ("__init__" in vars(cls)) == (cls is laws.LeftCongruence), cls.__name__
