import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import taskquant

MODULES = ["taskquant"] + [f"taskquant.{info.name}" for info
                           in pkgutil.iter_modules(taskquant.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_only_the_harness_names_its_private_attributes():
    # the CLI and the benchmark reach the harness through its public names
    root = Path(__file__).resolve().parents[1]
    private = re.compile(r"harness\._|from \.?harness import[^\n]*\b_\w")
    own = root / "src" / "taskquant" / "harness.py"
    files = [*(root / "src" / "taskquant").rglob("*.py"),
             *(root / "perfbench").rglob("*.py")]
    offenders = [path.relative_to(root).as_posix() for path in files
                 if path != own and private.search(path.read_text(encoding="utf-8"))]
    assert own in files and offenders == []
