"""Run the ledger's smoke test after every other collected test.

The tier-1 command collects from the repo root, so ``benchmarks/`` comes
before ``tests/``. ``tests/integration/test_crash_durability.py`` kills a
writer process the instant it reports a mutation and, as ROADMAP.md's
first open item records, fails when the kill is a few milliseconds late.
How late it is depends on where the pytest process's garbage collector
happens to run, which every test executed before it shifts: with this
test first, that one failed three full runs out of three on the builder's
box; with it last, the other tests run exactly as they do without it.
"""


def pytest_collection_modifyitems(items):
    here = __file__.rsplit("/", 1)[0]
    items.sort(key=lambda item: str(item.fspath).startswith(here))  # stable: ours go last
