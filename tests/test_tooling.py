"""Every name the benchmark traces and the package exports exists, so a
change that deletes one fails here rather than in a traced benchmark run;
and the CLI keeps one error boundary."""

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


def _system_exit_raises(node, where):
    """The dotted scope of each ``raise SystemExit`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) \
                else child.exc
            if isinstance(exc, ast.Name) and exc.id == "SystemExit":
                yield where
        yield from _system_exit_raises(child, inner)


def test_only_cli_main_raises_system_exit():
    """A bad config reaches the user through cli.main's one
    ``except ConfigError``; a second SystemExit would be a second path."""
    found = [scope for path in sorted(PACKAGE.glob("*.py"))
             for scope in _system_exit_raises(ast.parse(path.read_text()),
                                              path.stem)]
    assert found == ["cli.main"]
