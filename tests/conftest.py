import os

import pytest

# one line per acceptance criterion, filled by test_acceptance.py and
# echoed after the test summary so the pass/fail ledger is always visible
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session", autouse=True)
def _isolated_reference_cache(tmp_path_factory):
    """Keep reference solutions out of the user's real cache directory."""
    old = os.environ.get("DBCFEM_CACHE_DIR")
    os.environ["DBCFEM_CACHE_DIR"] = str(tmp_path_factory.mktemp("ref-cache"))
    yield
    if old is None:
        os.environ.pop("DBCFEM_CACHE_DIR", None)
    else:
        os.environ["DBCFEM_CACHE_DIR"] = old


@pytest.fixture
def assembly_calls(monkeypatch):
    """List of (operator, mesh level) for every operator assembly made
    while the test runs, whichever dbcfem module the caller imported the
    assembler into."""
    import importlib

    import dbcfem.assembly as assembly

    modules = [importlib.import_module("dbcfem." + name) for name in
               ("assembly", "analysis", "problems", "cli")]
    calls = []
    for kind in ("stiffness", "mass", "boundary_mass"):
        name = "assemble_" + kind
        original = getattr(assembly, name)

        def counting(dofmap, kind=kind, original=original):
            calls.append((kind, dofmap.mesh.level))
            return original(dofmap)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
