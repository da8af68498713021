"""``tools/mutants.py``, the standing mutation catalog: each mutant still
names code that exists, once, so a change that rewrites a mutated line must
update the catalog.  No tier-1 run starts here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalog():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_names_one_place_in_todays_sources():
    mutants = _catalog()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutant.file.startswith("src/") and mutant.old != mutant.new
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        # A mutant that does not compile would be caught by every test.
        compile(mutants.mutated(text, mutant), mutant.file, "exec")


def test_data_modules_exist():
    for module in _catalog().DATA_MODULES:
        assert (ROOT / module).is_file(), module
