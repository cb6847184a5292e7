import copy
import pickle
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vimotest.model import (
    CATALOG,
    CellKind,
    CommandKind,
    FeatureKind,
    ParamType,
    WidgetKind,
    catalog_lookup,
    validate_identifier,
    xml_attribute_name,
)


class TestCatalog:
    def test_checkbox_entry(self):
        entry = catalog_lookup(WidgetKind.CHECKBOX)
        assert entry.inherent == {FeatureKind.CHECKED}
        assert entry.widget_commands == {CommandKind.CHECK}

    def test_table_entry(self):
        entry = catalog_lookup(WidgetKind.TABLE)
        assert entry.inherent == {FeatureKind.ROWS}
        assert FeatureKind.SELECTED_ROW in entry.optional
        assert entry.widget_commands == {CommandKind.SELECT_ROW}

    def test_button_entry(self):
        entry = catalog_lookup(WidgetKind.BUTTON)
        assert entry.inherent == frozenset()
        assert entry.widget_commands == {CommandKind.CLICK}

    def test_label_and_textfield_have_inherent_text(self):
        assert catalog_lookup(WidgetKind.LABEL).inherent == {FeatureKind.TEXT}
        assert catalog_lookup(WidgetKind.TEXTFIELD).inherent == {FeatureKind.TEXT}

    def test_total_over_all_kinds(self):
        for kind in WidgetKind:
            entry = catalog_lookup(kind)
            assert entry.kind is kind

    def test_inherent_and_optional_disjoint(self):
        for entry in CATALOG.values():
            assert not entry.inherent & entry.optional


KINDS = (WidgetKind, FeatureKind, CommandKind, CellKind, ParamType)


class TestKindSemantics:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_members_hash_by_identity(self, kind):
        for member in kind:
            assert type(member).__hash__ is object.__hash__
            assert hash(member) == object.__hash__(member)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_members_never_equal_their_strings(self, kind):
        for member in kind:
            assert member != member.value and member.value != member
            assert {member: 1}.get(member.value) is None

    def test_formatting_names_the_member(self):
        assert FeatureKind.TEXT != "text"
        assert f"{FeatureKind.TEXT}" == str(FeatureKind.TEXT) == "FeatureKind.TEXT"
        assert repr(FeatureKind.TEXT) == "<FeatureKind.TEXT: 'text'>"

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_copies_are_the_same_member(self, kind):
        for member in kind:
            for twin in (copy.deepcopy(member), copy.copy(member),
                         pickle.loads(pickle.dumps(member))):
                assert twin is member and hash(twin) == hash(member)


class TestValidateIdentifier:
    def test_accepts_plain_name(self):
        assert validate_identifier("TaskListViewModel") == "TaskListViewModel"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_identifier("")

    def test_rejects_leading_digit(self):
        with pytest.raises(ValueError, match="digit"):
            validate_identifier("2tasks")

    def test_rejects_punctuation(self):
        with pytest.raises(ValueError):
            validate_identifier("foo-bar")

    @given(st.from_regex(r"[A-Za-z][A-Za-z0-9_]*", fullmatch=True))
    def test_accepts_everything_matching_the_grammar(self, name):
        assert validate_identifier(name) == name

    @given(st.text(max_size=8))
    def test_never_accepts_what_it_should_reject(self, raw):
        import re

        try:
            validate_identifier(raw)
        except ValueError:
            assert not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", raw or " ")
        else:
            assert re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", raw)


class TestXmlAttributeName:
    @pytest.mark.parametrize("title,name", [
        ("Task Name", "Task_Name"), ("D\u00e9signation", "D\u00e9signation"),
        ("x-y.z", "x-y.z"), ("", "_"), ("1x", "_1x"), ("a&b", "a_b"), ("a:b", "a_b"),
        ("-x", "_-x"), ("\u00b7x", "_\u00b7x"), ("a\u00d7b", "a_b"), ("a\tb", "a_b"),
        ("\u4e2d\u6587", "\u4e2d\u6587"), ("\u0132x", "_x"), ("a\u0221", "a_"),
        ("\uf900", "_"), ("\U00010000", "_"),
    ])
    def test_names(self, title, name):
        assert xml_attribute_name(title) == name

    def test_every_character_gives_a_name_that_xml_etree_reads(self):
        # Each code point once inside a name and once at its start, the name
        # made unique by the code point's hex: the whole BMP and a sample of
        # the planes above it, one document per block.
        codes = [c for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
        codes += range(0x10000, 0x110000, 0x3FF)
        for block in range(0, len(codes), 0x4000):
            names = []
            for code in codes[block:block + 0x4000]:
                names += (xml_attribute_name(f"c{code:x}-{chr(code)}"),
                          xml_attribute_name(chr(code)) + f"-{code:x}")
            root = ET.fromstring("<r %s/>" % " ".join(f'{n}="v"' for n in names))
            assert list(root.attrib) == names
