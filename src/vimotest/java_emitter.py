"""Java 17 source emission: ViewModel skeletons and JUnit 5 test classes.

Output is deterministic: byte-identical across runs for identical inputs,
4-space indentation, LF line endings, no timestamps. The emitted test class
expects hand-written companions next to it: ``<TypeName>Impl`` extending the
abstract ViewModel (and ``<TypeName>ControllerImpl`` in controller mode) plus
``<SuiteName>Setup`` exposing ``provideContext(String, String, String)``.
"""

from __future__ import annotations

import re
from typing import Iterator

from .analyzer import NameMap
from .genconfig import GenConfig
from .ir import IRClass, IRUnit
from .literals import comment_text
from .testbody import TargetSpec, write_test_body

_TYPES = {
    "bool": "boolean",
    "string": "String",
    "int": "int",
    "rowList": "List<Row>",
    "optIndex": "Integer",
}

_FIELD_INIT = {
    "string": ' = ""',
    "rowList": " = new ArrayList<>()",
}

# javac reads a backslash run of odd length before 'u' as a unicode escape,
# in comments too.
_UNICODE_ESCAPE = re.compile(r"(\\+)(?=u)")


def _comment(text: str) -> str:
    text = comment_text(text)
    return _UNICODE_ESCAPE.sub(r"\1\1", text) if "\\u" in text else text


_SPEC = TargetSpec(
    indent="        ", types=_TYPES, scope="", member=".",
    construct="{type} {name} = new {type}({args});",
    construct_bare="{type} {name} = new {type}();",
    assert_call="assertEquals", continuation="        + ", null="(Integer) null",
    index=(".get(", ")"), comment=_comment,
    # The selected-row getter returns Integer, so an expected index is boxed.
    row_count="{}", string=("", ""), row_index="Integer.valueOf({})", gate=False)


def emit_java(ir: IRUnit, name_map: NameMap, config: GenConfig) -> list[tuple[str, str]]:
    """Emit (relative path, file text) pairs for the Java target."""
    return [(rel, "".join(pieces)) for rel, pieces in emit_pieces(ir, name_map, config)]


def emit_pieces(ir: IRUnit, name_map: NameMap,
                config: GenConfig) -> list[tuple[str, Iterator[str]]]:
    """``emit_java``'s files, each text as the pieces it joins, made as they
    are asked for: a class file is one piece, a test file its head, one
    piece per test method and its tail."""
    prefix = config.java_package.replace(".", "/") + "/" if config.java_package else ""
    files: list[tuple[str, Iterator[str]]] = []
    view_model = ir.view_model
    # javac needs a public class in the file named after it, so a fileName
    # binding other than the type name is a diagnostic of compute_name_map.
    files.append((f"{prefix}{view_model.name}.java",
                  _class_file(view_model, config, view_model=None)))
    controller = ir.controller
    if controller is not None:
        files.append((f"{prefix}{controller.name}.java",
                      _class_file(controller, config, view_model=view_model.name)))
    if ir.suite_name is not None:
        files.append((f"{prefix}{ir.suite_name}Test.java", _test_file(ir, config)))
    return files


def _class_file(cls: IRClass, config: GenConfig, view_model: str | None) -> Iterator[str]:
    lines: list[str] = []
    if config.java_package:
        lines.append(f"package {config.java_package};")
        lines.append("")
    has_rows = any(p.ir_type == "rowList" for p in cls.properties)
    if has_rows:
        lines.append("import java.util.ArrayList;")
        lines.append("import java.util.List;")
        lines.append("")
    abstract = "abstract " if cls.abstract else ""
    lines.append(f"public {abstract}class {cls.name} {{")
    if has_rows:
        lines.append("")
        lines.append("    public static class Cell {")
        lines.append('        public String text = "";')
        lines.append('        public String tooltip = "";')
        lines.append('        public String color = "";')
        lines.append("    }")
        lines.append("")
        lines.append("    public static class Row {")
        lines.append("        public List<Cell> cells = new ArrayList<>();")
        lines.append('        public String color = "";')
        lines.append("    }")
    for op in cls.operations:
        if not op.param_object:
            continue
        lines.append("")
        lines.append(f"    public static class {op.param_object} {{")
        for field in op.params:
            lines.append(f"        public {_TYPES[field.ir_type]} {field.name};")
        lines.append("    }")
    if view_model is not None:
        ctor_access = "protected" if cls.abstract else "public"
        lines.append("")
        lines.append(f"    protected final {view_model} viewModel;")
        lines.append("")
        lines.append(f"    {ctor_access} {cls.name}({view_model} viewModel) {{")
        lines.append("        this.viewModel = viewModel;")
        lines.append("    }")
    if cls.properties:
        lines.append("")
        for prop in cls.properties:
            init = _FIELD_INIT.get(prop.ir_type, "")
            lines.append(f"    private {_TYPES[prop.ir_type]} {prop.name}{init};")
    for prop in cls.properties:
        lines.append("")
        lines.append(f"    public {_TYPES[prop.ir_type]} {prop.getter}() {{")
        lines.append(f"        return {prop.name};")
        lines.append("    }")
        lines.append("")
        lines.append(f"    public void {prop.setter}({_TYPES[prop.ir_type]} value) {{")
        lines.append(f"        this.{prop.name} = value;")
        lines.append("    }")
    for op in cls.operations:
        lines.append("")
        if op.param_object is not None:
            params = f"{op.param_object} params"
        else:
            params = ", ".join(f"{_TYPES[p.ir_type]} {p.name}" for p in op.params)
        if cls.abstract:
            lines.append(f"    public abstract void {op.name}({params});")
        else:
            lines.append(f"    public void {op.name}({params}) {{")
            lines.append("    }")
    lines.append("}")
    yield _text(lines)


def _test_file(ir: IRUnit, config: GenConfig) -> Iterator[str]:
    lines: list[str] = []
    if config.java_package:
        lines.append(f"package {config.java_package};")
        lines.append("")
    lines.append("import org.junit.jupiter.api.Test;")
    lines.append("")
    lines.append("import static org.junit.jupiter.api.Assertions.assertEquals;")
    lines.append("")
    lines.append(f"class {ir.suite_name}Test {{")
    yield _text(lines)
    written: dict[int, str] = {}
    for test in ir.tests:
        lines = ["", "    @Test", f"    void {test.name}() {{"]
        write_test_body(lines, ir, test, _SPEC, written)
        lines.append("    }")
        yield _text(lines)
    yield "}\n"


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"
