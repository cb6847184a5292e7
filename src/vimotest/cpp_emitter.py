"""C++17 source emission: header-only ViewModel skeletons plus test sources.

Assertions in the emitted tests go through the fixed ``vimotest_assert.hpp``
mini-assert header so the output has no external dependency. Hand-written
companions are expected alongside: ``<file>_impl.hpp`` defining
``<TypeName>Impl`` (abstract mode) and ``<suite>_setup.hpp`` defining
``<SuiteName>Setup`` with ``provideContext(name, payload, delivery)``.
"""

from __future__ import annotations

from typing import Iterator

from .analyzer import NameMap
from .genconfig import GenConfig
from .ir import IRClass, IRUnit
from .literals import comment_text
from .names import snake_case
from .testbody import TargetSpec, write_test_body

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


_SPEC = TargetSpec(
    indent="    ", types=_TYPES, scope="", member="::",
    construct="{type} {name}({args});", construct_bare="{type} {name};",
    assert_call="VT_ASSERT_EQ", continuation="    ", null="std::optional<int>()",
    index=("[", "]"), comment=comment_text,
    # Compare like with like: size_t counts, string cells, optional indexes.
    row_count="std::size_t({})", string=("std::string(", ")"), row_index="std::optional<int>({})",
    gate=True)

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
    return [(rel, "".join(pieces)) for rel, pieces in emit_pieces(ir, name_map, config)]


def emit_pieces(ir: IRUnit, name_map: NameMap,
                config: GenConfig) -> list[tuple[str, Iterator[str]]]:
    """``emit_cpp``'s files, each text as the pieces it joins, made as they
    are asked for: a header is one piece, a test file its head, one piece
    per test function and its tail, ``main`` included."""
    files: list[tuple[str, Iterator[str]]] = []
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
        files.append((ASSERT_HEADER_NAME, iter((ASSERT_HEADER,))))
    return files


def _header_file(cls: IRClass, config: GenConfig, view_model: str | None,
                 view_model_header: str | None) -> Iterator[str]:
    lines: list[str] = ["#pragma once", ""]
    # A param class's fields are its operation's params.
    used = ({p.ir_type for p in cls.properties}
            | {p.ir_type for op in cls.operations for p in op.params})
    includes = {header for ir_type, header in (("optIndex", "<optional>"),
                                                ("string", "<string>"),
                                                ("rowList", "<string>"),
                                                ("rowList", "<vector>"))
                if ir_type in used}
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
    for op in cls.operations:
        if not op.param_object:
            continue
        lines.append(f"    struct {op.param_object} {{")
        for field in op.params:
            lines.append(f"        {_TYPES[field.ir_type]} {field.name};")
        lines.append("    };")
        lines.append("")
    if view_model is not None:
        lines.append(f"    explicit {cls.name}({view_model}& viewModel)")
        lines.append("        : viewModel_(viewModel) {}")
        lines.append("")
    lines.append(f"    virtual ~{cls.name}() = default;")
    for prop in cls.properties:
        # Getters return and setters take what a parameter of the type is,
        # except that a row list is taken by value and moved in.
        param_type = _PARAM_TYPES[prop.ir_type]
        lines.append("")
        lines.append(f"    {param_type} {prop.getter}() const {{ return {prop.name}_; }}")
        if prop.ir_type == "rowList":
            lines.append(f"    void {prop.setter}({_TYPES['rowList']} value) {{ "
                         f"{prop.name}_ = std::move(value); }}")
        else:
            lines.append(f"    void {prop.setter}({param_type} value) {{ {prop.name}_ = value; }}")
    for op in cls.operations:
        lines.append("")
        if op.param_object is not None:
            params = f"const {op.param_object}& params"
        else:
            params = ", ".join(f"{_PARAM_TYPES[p.ir_type]} {p.name}"
                               for p in op.params)
        if cls.abstract:
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
    yield _text(lines)


def _test_file(ir: IRUnit, name_map: NameMap, config: GenConfig) -> Iterator[str]:
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
    yield _text(lines)
    spec = _SPEC._replace(scope=f"{config.cpp_namespace}::") if config.cpp_namespace else _SPEC
    written: dict[int, str] = {}
    for test in ir.tests:
        lines = [f"static void test_{test.name}() {{"]
        write_test_body(lines, ir, test, spec, written)
        lines.append("}")
        lines.append("")
        yield _text(lines)
    lines = ["int main() {"]
    for test in ir.tests:
        lines.append(f"    test_{test.name}();")
    lines.append("    return ::vimotest::summary();")
    lines.append("}")
    yield _text(lines)


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"
