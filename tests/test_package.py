"""The package surface: ``blockgs.__all__``, the README's import line and
the module-level caches."""

from pathlib import Path

import blockgs
from blockgs import blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel

MODULES = (blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel)
README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_has_no_duplicates():
    assert len(blockgs.__all__) == len(set(blockgs.__all__))


def test_all_is_the_modules_lists_plus_the_harness_names():
    # A list, not a set or dict, so a name two modules export shows twice.
    assert blockgs.__all__ == [
        name for module in MODULES for name in module.__all__
    ]


def test_every_exported_name_resolves_to_its_module_binding():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(blockgs, name) is getattr(module, name), name


def test_harness_names_import_from_the_package():
    from blockgs import cli_main, read_csv

    assert read_csv is harness.read_csv
    assert cli_main is harness.cli_main


def test_readme_quick_start_import_line_runs():
    lines = [
        line for line in README.read_text().splitlines()
        if line.startswith("from blockgs import ")
    ]
    assert lines
    for line in lines:
        namespace = {}
        exec(line, namespace)
        names = line.removeprefix("from blockgs import ").split(",")
        for name in names:
            assert namespace[name.strip()] is getattr(blockgs, name.strip())


def test_every_module_cache_is_bounded():
    # Memory stays O(m*s) only while every functools cache has a maxsize;
    # an unbounded one reports None.
    maxsizes = {
        f"{module.__name__}.{name}": value.cache_info().maxsize
        for module in MODULES
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert len(maxsizes) >= 3, maxsizes
    assert all(isinstance(size, int) for size in maxsizes.values()), maxsizes
