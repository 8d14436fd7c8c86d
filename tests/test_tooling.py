"""Every name the benchmark traces and the package exports exists, so a
change that deletes one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import grushin
import grushin.riesz

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
