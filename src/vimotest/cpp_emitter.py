"""C++17 source emission: header-only ViewModel skeletons plus test sources.

Assertions in the emitted tests go through the fixed ``vimotest_assert.hpp``
mini-assert header so the output has no external dependency. Hand-written
companions are expected alongside: ``<file>_impl.hpp`` defining
``<TypeName>Impl`` (abstract mode) and ``<suite>_setup.hpp`` defining
``<SuiteName>Setup`` with ``provideContext(name, payload, delivery)``.
"""

from __future__ import annotations

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
from .names import camel_case, snake_case

_TYPES = {
    "bool": "bool",
    "string": "std::string",
    "int": "int",
    "rowList": "std::vector<Row>",
    "optIndex": "std::optional<int>",
}

_PARAM_TYPES = {
    "bool": "bool",
    "string": "const std::string&",
    "int": "int",
    "rowList": "const std::vector<Row>&",
    "optIndex": "std::optional<int>",
}

ASSERT_HEADER_NAME = "vimotest_assert.hpp"

ASSERT_HEADER = """\
#pragma once

#include <iostream>
#include <optional>
#include <sstream>
#include <string>

namespace vimotest {

inline int& failureCount() {
    static int count = 0;
    return count;
}

template <typename T>
inline std::string repr(const T& value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

inline std::string repr(bool value) {
    return value ? "true" : "false";
}

template <typename T>
inline std::string repr(const std::optional<T>& value) {
    return value.has_value() ? repr(*value) : std::string("none");
}

template <typename E, typename A>
inline void assertEqual(const E& expected, const A& actual, const char* message,
                        const char* file, int line) {
    if (!(expected == actual)) {
        ++failureCount();
        std::cerr << file << ":" << line << ": FAIL " << message
                  << ": expected " << repr(expected)
                  << ", actual " << repr(actual) << "\\n";
    }
}

inline int summary() {
    if (failureCount() == 0) {
        std::cout << "all assertions passed\\n";
        return 0;
    }
    std::cerr << failureCount() << " assertion(s) failed\\n";
    return 1;
}

}  // namespace vimotest

#define VT_ASSERT_EQ(expected, actual, message) \\
    ::vimotest::assertEqual((expected), (actual), (message), __FILE__, __LINE__)
"""


def emit_cpp(ir: IRUnit, name_map: NameMap, config: GenConfig) -> list[tuple[str, str]]:
    """Emit (relative path, file text) pairs for the C++ target."""
    files: list[tuple[str, str]] = []
    vm_file = name_map.file_name
    view_model = ir.view_model
    files.append((f"{vm_file}.hpp", _header_file(view_model, config, None, None)))
    controller = ir.controller
    if controller is not None:
        files.append((f"{vm_file}_controller.hpp",
                      _header_file(controller, config, view_model.name,
                                   f"{vm_file}.hpp")))
    if ir.suite_name is not None:
        files.append((f"{snake_case(ir.suite_name)}_test.cpp",
                      _test_file(ir, name_map, config)))
        files.append((ASSERT_HEADER_NAME, ASSERT_HEADER))
    return files


def _header_file(cls: IRClass, config: GenConfig, view_model: str | None,
                 view_model_header: str | None) -> str:
    lines: list[str] = ["#pragma once", ""]
    includes = set()
    if any(p.ir_type == "optIndex" for p in cls.properties):
        includes.add("<optional>")
    if any(p.ir_type in ("string", "rowList") for p in cls.properties):
        includes.add("<string>")
    if any(p.ir_type == "rowList" for p in cls.properties):
        includes.add("<vector>")
    for op in cls.operations:
        for param in op.params:
            if param.ir_type == "string":
                includes.add("<string>")
    for pc in cls.param_classes:
        for field in pc.fields:
            if field.ir_type == "string":
                includes.add("<string>")
    if view_model_header is not None:
        lines.append(f'#include "{view_model_header}"')
    for include in sorted(includes):
        lines.append(f"#include {include}")
    if includes or view_model_header:
        lines.append("")
    if config.cpp_namespace:
        lines.append(f"namespace {config.cpp_namespace} {{")
        lines.append("")
    lines.append(f"class {cls.name} {{")
    lines.append("public:")
    has_rows = any(p.ir_type == "rowList" for p in cls.properties)
    if has_rows:
        lines.append("    struct Cell {")
        lines.append("        std::string text;")
        lines.append("        std::string tooltip;")
        lines.append("        std::string color;")
        lines.append("    };")
        lines.append("")
        lines.append("    struct Row {")
        lines.append("        std::vector<Cell> cells;")
        lines.append("        std::string color;")
        lines.append("    };")
        lines.append("")
    for pc in cls.param_classes:
        lines.append(f"    struct {pc.name} {{")
        for field in pc.fields:
            lines.append(f"        {_TYPES[field.ir_type]} {field.name};")
        lines.append("    };")
        lines.append("")
    if view_model is not None:
        lines.append(f"    explicit {cls.name}({view_model}& viewModel)")
        lines.append("        : viewModel_(viewModel) {}")
        lines.append("")
    lines.append(f"    virtual ~{cls.name}() = default;")
    for prop in cls.properties:
        cpp_type = _TYPES[prop.ir_type]
        lines.append("")
        if prop.ir_type == "rowList":
            lines.append(f"    const {cpp_type}& {prop.getter}() const {{ "
                         f"return {prop.name}_; }}")
            lines.append(f"    void {prop.setter}({cpp_type} value) {{ "
                         f"{prop.name}_ = std::move(value); }}")
        elif prop.ir_type == "string":
            lines.append(f"    const {cpp_type}& {prop.getter}() const {{ "
                         f"return {prop.name}_; }}")
            lines.append(f"    void {prop.setter}(const {cpp_type}& value) {{ "
                         f"{prop.name}_ = value; }}")
        else:
            lines.append(f"    {cpp_type} {prop.getter}() const {{ "
                         f"return {prop.name}_; }}")
            lines.append(f"    void {prop.setter}({cpp_type} value) {{ "
                         f"{prop.name}_ = value; }}")
    for op in cls.operations:
        lines.append("")
        if op.param_object is not None:
            params = f"const {op.param_object}& params"
        else:
            params = ", ".join(f"{_PARAM_TYPES[p.ir_type]} {p.name}"
                               for p in op.params)
        if op.abstract:
            lines.append(f"    virtual void {op.name}({params}) = 0;")
        else:
            lines.append(f"    virtual void {op.name}({params}) {{}}")
    sections: list[str] = []
    if cls.properties:
        sections.append("")
        sections.append("private:")
        for prop in cls.properties:
            init = " = false" if prop.ir_type == "bool" else ""
            sections.append(f"    {_TYPES[prop.ir_type]} {prop.name}_{init};")
    if view_model is not None:
        if not sections:
            sections.append("")
            sections.append("protected:")
        sections.append(f"    {view_model}& viewModel_;")
    lines.extend(sections)
    lines.append("};")
    if config.cpp_namespace:
        lines.append("")
        lines.append(f"}}  // namespace {config.cpp_namespace}")
    return "\n".join(lines) + "\n"


def _test_file(ir: IRUnit, name_map: NameMap, config: GenConfig) -> str:
    vm_file = name_map.file_name
    suite_snake = snake_case(ir.suite_name)
    view_model = ir.view_model
    controller = ir.controller
    lines: list[str] = [f'#include "{vm_file}.hpp"']
    if view_model.abstract:
        lines.append(f'#include "{vm_file}_impl.hpp"')
    if controller is not None:
        lines.append(f'#include "{vm_file}_controller.hpp"')
        if controller.abstract:
            lines.append(f'#include "{vm_file}_controller_impl.hpp"')
    lines.append(f'#include "{suite_snake}_setup.hpp"')
    lines.append(f'#include "{ASSERT_HEADER_NAME}"')
    lines.append("")
    lines.append("#include <optional>")
    lines.append("#include <string>")
    lines.append("")
    ns = f"{config.cpp_namespace}::" if config.cpp_namespace else ""
    for test in ir.tests:
        lines.append(f"static void test_{test.name}() {{")
        _test_body(lines, ir, ns, test)
        lines.append("}")
        lines.append("")
    lines.append("int main() {")
    for test in ir.tests:
        lines.append(f"    test_{test.name}();")
    lines.append("    return ::vimotest::summary();")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _test_body(lines: list[str], ir: IRUnit, ns: str, test) -> None:
    ind = "    "
    view_model = ir.view_model
    controller = ir.controller
    vm_type = f"{view_model.name}Impl" if view_model.abstract else view_model.name
    lines.append(f"{ind}{ns}{vm_type} vm;")
    command_target = "vm"
    command_home = view_model.name
    if controller is not None:
        ctrl_type = f"{controller.name}Impl" if controller.abstract else controller.name
        lines.append(f"{ind}{ns}{ctrl_type} controller(vm);")
        command_target = "controller"
        command_home = controller.name
    lines.append(f"{ind}{ns}{ir.suite_name}Setup setup(vm);")
    param_locals: dict[str, int] = {}
    for stmt in test.statements:
        if isinstance(stmt, Comment):
            lines.append(f"{ind}// {comment_text(stmt.text)}")
        elif isinstance(stmt, RowMatrix):
            lines.append(f"{ind}// expected {stmt.widget} rows:")
            for row in stmt.display(comment_text):
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
                cls = controller if controller is not None else view_model
                fields = next(pc.fields for pc in cls.param_classes
                              if pc.name == stmt.param_object)
                qualified = f"{ns}{command_home}::{stmt.param_object}"
                lines.append(f"{ind}{qualified} {local};")
                for field, arg in zip(fields, stmt.args):
                    lines.append(f"{ind}{local}.{field.name} = {_expr(arg)};")
                lines.append(f"{ind}{command_target}.{stmt.method}({local});")
            else:
                args = ", ".join(_expr(a) for a in stmt.args)
                lines.append(f"{ind}{command_target}.{stmt.method}({args});")
        elif isinstance(stmt, AssertEqual):
            expected = _expected_expr(stmt.expected, stmt.actual)
            lines.append(f"{ind}VT_ASSERT_EQ({expected}, {_expr(stmt.actual)}, "
                         f"{quote(stmt.message)});")


def _declare_local(lines: list[str], ind: str, stmt: DeclareLocal) -> None:
    init = stmt.init
    if isinstance(init, StringLit) and init.multiline:
        parts = init.value.split("\n")
        head = quote(parts[0] + "\n")
        lines.append(f"{ind}std::string {stmt.name} = {head}")
        for part in parts[1:-1]:
            chunk = quote(part + "\n")
            lines.append(f"{ind}    {chunk}")
        lines.append(f"{ind}    {quote(parts[-1])};")
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
        return "std::optional<int>()"
    if isinstance(expr, LocalRef):
        return expr.name
    if isinstance(expr, PropertyGet):
        return f"vm.{expr.getter}()"
    if isinstance(expr, RowCount):
        return f"vm.{expr.getter}().size()"
    if isinstance(expr, CellField):
        return f"vm.{expr.getter}()[{expr.row}].cells[{expr.column}].{expr.field}"
    if isinstance(expr, RowColorField):
        return f"vm.{expr.getter}()[{expr.row}].color"
    raise TypeError(f"cannot emit expression {expr!r}")


def _expected_expr(expected, actual) -> str:
    if isinstance(actual, RowCount) and isinstance(expected, IntLit):
        return f"std::size_t({expected.value})"
    if isinstance(actual, PropertyGet) and actual.ir_type == "optIndex":
        if isinstance(expected, IntLit):
            return f"std::optional<int>({expected.value})"
        return "std::optional<int>()"
    if isinstance(actual, CellField) or isinstance(actual, RowColorField):
        if isinstance(expected, StringLit):
            return f"std::string({quote(expected.value)})"
    return _expr(expected)
