"""Every name the benchmark traces and the package exports exists, so a
change that deletes one fails here rather than in a traced benchmark run;
the CLI keeps one error boundary, the probes' verdicts are set in one
layer, one site reports an unknown name and one an out-of-range value,
one site limits the weighted Grams to d2 = 1, no setting comes from the
environment, and one site builds the Gauss-Legendre rule."""

import ast
import importlib
import importlib.util
from pathlib import Path

import grushin
import grushin.riesz

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grushin"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TRACED
    missing = [f"{home}.{name}" for home, name, _, _ in layertrace.TRACED
               if not callable(getattr(
                   importlib.import_module(f"grushin.{home}"), name, None))]
    assert missing == []


def test_exported_names_resolve():
    for module in (grushin, grushin.riesz):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], module.__name__


def _scopes(node, where, match):
    """The dotted scope of each node under ``node`` that ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if match(child):
            yield where
        yield from _scopes(child, inner, match)


def _raises(name: str):
    """A matcher of ``raise <name>`` and ``raise <name>(...)``."""
    def match(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == name
    return match


def _package_scopes(match):
    """The dotted scope of each node in the package that ``match`` accepts."""
    return [scope for path in sorted(PACKAGE.glob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), path.stem,
                                 match)]


def _assigns_verdict(node) -> bool:
    """An assignment to some object's ``.verdict``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Attribute) and t.attr == "verdict"
               for t in targets)


def test_only_cli_main_raises_system_exit():
    """A bad config reaches the user through cli.main's one
    ``except ConfigError``; a second SystemExit would be a second path."""
    assert _package_scopes(_raises("SystemExit")) == ["cli.main"]


def test_verdicts_are_set_by_the_report_constructors():
    """Each probe's pass rule is one ``ProbeReport`` constructor in
    report.py."""
    found = _package_scopes(_assigns_verdict)
    assert [s for s in found if not s.startswith("report.")] == []
    assert "report.ProbeReport.slope_bound" in found


def test_one_site_reports_an_unknown_name():
    """Every unknown grid, family, variant, kind, symbol, suite, probe or
    layer name is reported by ``dims.known_name``, in one format."""
    assert _package_scopes(_raises("UnknownName")) == ["dims.known_name"]


def test_one_site_reports_an_out_of_range_value():
    """Every bound on a value a config or a caller supplies is checked by
    ``dims.in_range``, in one format; ConfigError is raised elsewhere only
    to report a config that cannot be read or parsed, a dimension that is
    no integer, a symbol parameter's name, or a family band that misses
    the grid."""
    assert sorted(set(_package_scopes(_raises("ConfigError")))) == [
        "cli._grid_from_config", "cli._read_config_file",
        "cli._resolve_config", "dims.Dims.__post_init__",
        "dims.config_value", "dims.in_range", "grid.parse_flat_config",
        "symbols.builtin_symbol", "verifier.family_fields"]


def test_one_site_limits_the_weighted_grams_to_d2_one():
    assert _package_scopes(_raises("NotImplementedError")) == [
        "calculus._require_d2_one"]


def _reads_environment(node) -> bool:
    """``os.environ`` or ``os.getenv``, as an attribute or an import."""
    names = ("environ", "getenv")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in names for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_settings_come_only_from_the_config():
    """A run is replayed from its manifest, so no setting may come from the
    environment, which the manifest does not record."""
    found = _package_scopes(_reads_environment)
    assert found == []


def _calls_leggauss(node) -> bool:
    """A call of ``leggauss``, however it is reached."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Attribute) and f.attr == "leggauss"
            or isinstance(f, ast.Name) and f.id == "leggauss")


def test_one_site_builds_the_gauss_legendre_rule():
    """Every quadrature reads the cached ``reductions.gauss_legendre``."""
    found = _package_scopes(_calls_leggauss)
    assert found == ["reductions.gauss_legendre"]
