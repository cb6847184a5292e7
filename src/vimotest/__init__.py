"""Textual DSL toolchain for ViewModel descriptions and given/when/then
GUI test scenarios: parse, validate, execute in-process, and generate Java
or C++ test sources through a neutral intermediate representation."""

__version__ = "0.1.0"

from .analyzer import (  # noqa: F401
    LinkedSuite,
    NameMap,
    Project,
    compute_name_map,
    link,
    resolve,
    sanitize_test_name,
    validate_description,
)
from .cpp_emitter import emit_cpp  # noqa: F401
from .genconfig import GenConfig, GenConfigError, load_genconfig, parse_genconfig  # noqa: F401
from .ir import IRUnit, ir_to_dict, lower_to_ir  # noqa: F401
from .java_emitter import emit_java  # noqa: F401
from .model import (  # noqa: F401
    CATALOG,
    CommandKind,
    FeatureKind,
    TestSuite,
    ViewModelDescription,
    WidgetKind,
    catalog_lookup,
    validate_identifier,
)
from .parser import parse_test_suite, parse_view_model  # noqa: F401
from .printer import pretty_print  # noqa: F401
from .runtime import (  # noqa: F401
    CellValue,
    CheckFailure,
    RowValue,
    RunConfig,
    ScenarioResult,
    StoreError,
    WidgetStateStore,
    evaluate_rows_check,
    execute_scenario,
    render_context,
    run_suite,
)
