import importlib
import pkgutil
import re
from pathlib import Path

import covdec

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in covdec.__all__ if not hasattr(covdec, name)]
    assert missing == []


def test_every_name_the_docs_import_from_covdec_is_exported():
    imported = set()
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        for clause in re.findall(r"^\s*from covdec import (\([^)]*\)|.*)$", text, re.MULTILINE):
            imported.update((doc.name, name)
                            for name in re.findall(r"(\w+)(?:\s+as\s+\w+)?", clause))
    assert ("README.md", "run_training") in imported
    assert sorted(i for i in imported if i[1] not in covdec.__all__) == []


# a backticked name that reads like `module.name` but is a file
FILE_SUFFIXES = (".txt", ".csv", ".json", ".cvdp", ".eegt", ".md")


def test_every_module_name_the_docs_mention_resolves():
    modules = {info.name for info in pkgutil.iter_modules(covdec.__path__)}
    checked, missing = set(), []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        for dotted in re.findall(r"`(?:covdec\.)?(\w+(?:\.\w+)+)(?:\([^`]*\))?`", text):
            module, *attrs = dotted.split(".")
            if module not in modules or dotted.endswith(FILE_SUFFIXES):
                continue
            checked.add(dotted)
            obj = importlib.import_module(f"covdec.{module}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if obj is None:
                missing.append((doc.name, dotted))
    assert {"data.load", "autodiff.tape", "gradcheck.run_suite"} <= checked
    assert missing == []
