"""The record contract: every AST, IR and runtime value class in the package
is an immutable slotted record, built, compared, hashed, shown and copied
the way the dataclasses it replaced were."""

import copy
import hashlib
import importlib
import inspect
import pickle
import pkgutil

import pytest

import vimotest
from vimotest.analyzer import compute_name_map
from vimotest.diagnostics import UNKNOWN_SPAN, Record, SourceSpan
from vimotest.genconfig import GenConfig, GenConfigError
from vimotest.ir import ir_to_dict, lower_to_ir
from vimotest.model import CheckValue, FeatureKind, TextBody, WidgetKind
from vimotest.runtime import CellValue, RowValue

MODULES = [importlib.import_module(f"vimotest.{info.name}")
           for info in pkgutil.iter_modules(vimotest.__path__)]
RECORDS = sorted({value for module in MODULES for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, Record)
                  and value is not Record},
                 key=lambda cls: (cls.__module__, cls.__qualname__))

# A span other than the default, to show that spans do not take part in
# equality.
OTHER_SPAN = SourceSpan("other.vmtest", 7, 3, 5)


def spanned(cls) -> bool:
    """True when ``cls`` has a ``span_field()``: a span that defaults to
    UNKNOWN_SPAN."""
    span = inspect.signature(cls).parameters.get("span")
    return span is not None and span.default is UNKNOWN_SPAN


def sample(cls, tag: str = "") -> dict:
    """Keyword arguments for ``cls``: a distinct string for each required
    field; the defaulted ones are left out."""
    return {name: f"{name}{tag}" for name, param in inspect.signature(cls).parameters.items()
            if param.default is inspect.Parameter.empty}


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def hashable(record) -> bool:
    return not any(isinstance(value, dict) for value in values(record))


def test_every_value_class_is_a_record():
    assert len(RECORDS) >= 59
    assert {"CellValue", "Diagnostic", "GenConfig", "IRUnit", "NameMap", "SetupRegistration",
            "TestSuite"} <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls):
        record = cls(**sample(cls))
        twin = cls(*values(record))
        assert values(twin) == values(record)
        assert twin == record and not twin != record
        if hashable(record):
            assert hash(twin) == hash(record)

    def test_equality_needs_the_exact_type(self, cls):
        record = cls(**sample(cls))
        subclass = type(f"Sub{cls.__name__}", (cls,), {})
        other = subclass(*values(record))
        assert other != record and record != other
        assert record != values(record)
        if sample(cls):
            assert cls(**sample(cls, "x")) != record

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = cls(**sample(cls))
        assert not hasattr(record, "__dict__")
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert values(record) == values(cls(**sample(cls)))

    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        kwargs = {"span": OTHER_SPAN} if spanned(cls) else {}
        record = cls(**sample(cls), **kwargs)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls
            assert twin == record and values(twin) == values(record)


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if spanned(cls)],
                         ids=lambda cls: cls.__name__)
def test_spans_are_not_compared_or_shown(cls):
    record = cls(**sample(cls))
    moved = cls(**sample(cls), span=OTHER_SPAN)
    assert moved.span == OTHER_SPAN and record.span == UNKNOWN_SPAN
    assert moved == record and hash(moved) == hash(record)
    assert repr(moved) == repr(record) and "span" not in repr(moved)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_only_init_is_built_per_class(cls):
    assert "__init__" in cls.__dict__
    for method in ("__eq__", "__hash__", "__repr__"):
        assert getattr(cls, method) is getattr(Record, method), method
    record = cls(**sample(cls, "x"))
    compared = tuple(getattr(record, name) for name in cls._fields
                     if name != "span" or not spanned(cls))
    if hashable(record):
        assert hash(record) == hash(compared)


@pytest.mark.parametrize("kwargs", [
    {"target": "rust"},
    {"commands_on_view_model": False},
    {"generate_view_controller": True},
    {"context_format": "yaml"},
    {"context_delivery": "pipe"},
])
def test_bad_genconfig_is_rejected_at_construction(kwargs):
    with pytest.raises(GenConfigError):
        GenConfig(**kwargs)


# Recorded from the dataclass implementation; runtime messages embed reprs.
REPRS = [
    (CellValue("Buy milk", tooltip="due 'today'", color="red"),
     "CellValue(text='Buy milk', tooltip=\"due 'today'\", color='red')"),
    (RowValue((CellValue("a"), CellValue()), color=None),
     "RowValue(cells=(CellValue(text='a', tooltip=None, color=None), "
     "CellValue(text='', tooltip=None, color=None)), color=None)"),
    (TextBody("two\nlines"), "TextBody(text='two\\nlines')"),
    (CheckValue("tasks", WidgetKind.TABLE, FeatureKind.ENABLED, True,
                span=SourceSpan("s.vmtest", 3, 5, 2)),
     "CheckValue(widget='tasks', widget_kind=<WidgetKind.TABLE: 'table'>, "
     "feature=<FeatureKind.ENABLED: 'enabled'>, expectation=True)"),
    (GenConfig(target="cpp", cpp_namespace="app"),
     "GenConfig(target='cpp', commands_on_view_model=True, generate_view_controller=False, "
     "abstract_view_model=True, parameter_object=False, context_format='multiline', "
     "context_delivery='inline', java_package=None, cpp_namespace='app')"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_text_is_unchanged(record, text):
    assert repr(record) == text


# SHA-256 of repr(ir_to_dict(unit)) for the corpus unit under each target's
# default config, recorded from the dataclasses.asdict implementation; the
# repr tells tuples from lists.
IR_DIGESTS = {
    "java": "acc33853250e4df55a525e6cbd0e3b47e4b89d21f0753de8aeba7b03cad0913d",
    "cpp": "acc33853250e4df55a525e6cbd0e3b47e4b89d21f0753de8aeba7b03cad0913d",
}


@pytest.mark.parametrize("target", sorted(IR_DIGESTS))
def test_ir_to_dict_is_unchanged(corpus_desc, corpus_linked, target):
    config = GenConfig(target=target)
    name_map, _ = compute_name_map(corpus_desc, config)
    plain = ir_to_dict(lower_to_ir(corpus_desc, corpus_linked, name_map, config))
    assert type(plain) is dict and type(plain["classes"]) is tuple
    assert type(plain["classes"][0]) is dict
    assert hashlib.sha256(repr(plain).encode()).hexdigest() == IR_DIGESTS[target], plain
