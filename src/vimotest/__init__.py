"""Textual DSL toolchain for ViewModel descriptions and given/when/then
GUI test scenarios: parse, validate, execute in-process, and generate Java
or C++ test sources through a neutral intermediate representation.

The names below are re-exported lazily (PEP 562): ``import vimotest`` loads
no submodule, and the first access to a name imports its home module.
"""

import importlib

__version__ = "0.1.0"

# Each re-exported name and the submodule it lives in.
_EXPORTS = {
    **dict.fromkeys((
        "LinkedSuite", "NameMap", "Project", "compute_name_map", "link", "resolve",
        "sanitize_test_name", "validate_description"), "analyzer"),
    "emit_cpp": "cpp_emitter",
    **dict.fromkeys(("GenConfig", "GenConfigError", "load_genconfig", "parse_genconfig"),
                    "genconfig"),
    **dict.fromkeys(("IRUnit", "ir_to_dict", "lower_to_ir"), "ir"),
    "emit_java": "java_emitter",
    **dict.fromkeys((
        "CATALOG", "CommandKind", "FeatureKind", "TestSuite", "ViewModelDescription",
        "WidgetKind", "catalog_lookup", "validate_identifier"), "model"),
    **dict.fromkeys(("parse_test_suite", "parse_view_model"), "parser"),
    "pretty_print": "printer",
    **dict.fromkeys((
        "CellValue", "CheckFailure", "RowValue", "RunConfig", "ScenarioResult", "StoreError",
        "WidgetStateStore", "evaluate_rows_check", "execute_scenario", "render_context",
        "run_suite"), "runtime"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
