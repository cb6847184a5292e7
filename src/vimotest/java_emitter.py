"""Java 17 source emission: ViewModel skeletons and JUnit 5 test classes.

Output is deterministic: byte-identical across runs for identical inputs,
4-space indentation, LF line endings, no timestamps. The emitted test class
expects hand-written companions next to it: ``<TypeName>Impl`` extending the
abstract ViewModel (and ``<TypeName>ControllerImpl`` in controller mode) plus
``<SuiteName>Setup`` exposing ``provideContext(String, String, String)``.
"""

from __future__ import annotations

import re

from .analyzer import NameMap
from .genconfig import GenConfig
from .ir import (
    AssertEqual,
    BoolLit,
    CallSetup,
    CellField,
    Comment,
    DeclareLocal,
    IRClass,
    IRUnit,
    IntLit,
    InvokeCommand,
    LocalRef,
    NullLit,
    PropertyGet,
    RowColorField,
    RowCount,
    RowMatrix,
    StringLit,
)
from .literals import comment_text, quote
from .names import camel_case

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
    return _UNICODE_ESCAPE.sub(r"\1\1", text) if "\\" in text else text


def emit_java(ir: IRUnit, name_map: NameMap, config: GenConfig) -> list[tuple[str, str]]:
    """Emit (relative path, file text) pairs for the Java target."""
    prefix = ""
    if config.java_package:
        prefix = config.java_package.replace(".", "/") + "/"
    files: list[tuple[str, str]] = []
    view_model = ir.view_model
    vm_file = name_map.file_name if name_map.file_name_bound else view_model.name
    files.append((f"{prefix}{vm_file}.java",
                  _class_file(view_model, config, view_model=None)))
    controller = ir.controller
    if controller is not None:
        files.append((f"{prefix}{controller.name}.java",
                      _class_file(controller, config, view_model=view_model.name)))
    if ir.suite_name is not None:
        files.append((f"{prefix}{ir.suite_name}Test.java", _test_file(ir, config)))
    return files


def _class_file(cls: IRClass, config: GenConfig, view_model: str | None) -> str:
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
    for param_class in cls.param_classes:
        lines.append("")
        lines.append(f"    public static class {param_class.name} {{")
        for field in param_class.fields:
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
        if op.abstract:
            lines.append(f"    public abstract void {op.name}({params});")
        else:
            lines.append(f"    public void {op.name}({params}) {{")
            lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _test_file(ir: IRUnit, config: GenConfig) -> str:
    lines: list[str] = []
    if config.java_package:
        lines.append(f"package {config.java_package};")
        lines.append("")
    lines.append("import org.junit.jupiter.api.Test;")
    lines.append("")
    lines.append("import static org.junit.jupiter.api.Assertions.assertEquals;")
    lines.append("")
    lines.append(f"class {ir.suite_name}Test {{")
    for test in ir.tests:
        lines.append("")
        lines.append("    @Test")
        lines.append(f"    void {test.name}() {{")
        _test_body(lines, ir, config, test)
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _test_body(lines: list[str], ir: IRUnit, config: GenConfig, test) -> None:
    ind = "        "
    view_model = ir.view_model
    vm_type = f"{view_model.name}Impl" if view_model.abstract else view_model.name
    lines.append(f"{ind}{vm_type} vm = new {vm_type}();")
    controller = ir.controller
    command_target = "vm"
    command_home = view_model.name
    if controller is not None:
        ctrl_type = f"{controller.name}Impl" if controller.abstract else controller.name
        lines.append(f"{ind}{ctrl_type} controller = new {ctrl_type}(vm);")
        command_target = "controller"
        command_home = controller.name
    lines.append(f"{ind}{ir.suite_name}Setup setup = new {ir.suite_name}Setup(vm);")
    param_locals: dict[str, int] = {}
    for stmt in test.statements:
        if isinstance(stmt, Comment):
            lines.append(f"{ind}// {_comment(stmt.text)}")
        elif isinstance(stmt, RowMatrix):
            lines.append(f"{ind}// expected {stmt.widget} rows:")
            for row in stmt.display(_comment):
                lines.append(f"{ind}// {row}")
        elif isinstance(stmt, DeclareLocal):
            _declare_local(lines, ind, stmt)
        elif isinstance(stmt, CallSetup):
            lines.append(f"{ind}setup.provideContext({quote(stmt.context_name)}, "
                         f"{_expr(stmt.payload)}, {quote(stmt.delivery)});")
        elif isinstance(stmt, InvokeCommand):
            if stmt.param_object is not None:
                base = camel_case(stmt.param_object)
                count = param_locals.get(base, 0) + 1
                param_locals[base] = count
                local = base if count == 1 else f"{base}{count}"
                cls = ir.controller if controller is not None else view_model
                fields = next(pc.fields for pc in cls.param_classes
                              if pc.name == stmt.param_object)
                qualified = f"{command_home}.{stmt.param_object}"
                lines.append(f"{ind}{qualified} {local} = new {qualified}();")
                for field, arg in zip(fields, stmt.args):
                    lines.append(f"{ind}{local}.{field.name} = {_expr(arg)};")
                lines.append(f"{ind}{command_target}.{stmt.method}({local});")
            else:
                args = ", ".join(_expr(a) for a in stmt.args)
                lines.append(f"{ind}{command_target}.{stmt.method}({args});")
        elif isinstance(stmt, AssertEqual):
            expected = _expected_expr(stmt.expected, stmt.actual)
            lines.append(f"{ind}assertEquals({expected}, {_expr(stmt.actual)}, "
                         f"{quote(stmt.message)});")


def _declare_local(lines: list[str], ind: str, stmt: DeclareLocal) -> None:
    init = stmt.init
    if isinstance(init, StringLit) and init.multiline:
        parts = init.value.split("\n")
        head = quote(parts[0] + "\n")
        lines.append(f"{ind}String {stmt.name} = {head}")
        for part in parts[1:-1]:
            chunk = quote(part + "\n")
            lines.append(f"{ind}        + {chunk}")
        lines.append(f"{ind}        + {quote(parts[-1])};")
    else:
        lines.append(f"{ind}{_TYPES[stmt.ir_type]} {stmt.name} = {_expr(init)};")


def _expr(expr) -> str:
    if isinstance(expr, StringLit):
        return quote(expr.value)
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, LocalRef):
        return expr.name
    if isinstance(expr, PropertyGet):
        return f"vm.{expr.getter}()"
    if isinstance(expr, RowCount):
        return f"vm.{expr.getter}().size()"
    if isinstance(expr, CellField):
        return (f"vm.{expr.getter}().get({expr.row})"
                f".cells.get({expr.column}).{expr.field}")
    if isinstance(expr, RowColorField):
        return f"vm.{expr.getter}().get({expr.row}).color"
    raise TypeError(f"cannot emit expression {expr!r}")


def _expected_expr(expected, actual) -> str:
    # The selected-row getter returns Integer, so box or cast the expectation.
    if isinstance(actual, PropertyGet) and actual.ir_type == "optIndex":
        if isinstance(expected, IntLit):
            return f"Integer.valueOf({expected.value})"
        if isinstance(expected, NullLit):
            return "(Integer) null"
    return _expr(expected)
