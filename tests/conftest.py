"""Shared pytest hooks: tests carrying the ``criterion`` marker get one
PASS/FAIL summary line each, written as they finish.  ``--hypothesis-profile
deep`` runs every property test that sets no example count of its own on ten
times the default examples, derandomized (CI runs the chase tests so).  Both
profiles print a failing example's ``@reproduce_failure`` line, so a random
failure can be replayed from a log alone."""

import pytest
from hypothesis import settings

settings.register_profile("default", print_blob=True)
settings.register_profile("deep", max_examples=1000, derandomize=True, print_blob=True)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, label): numbered acceptance check, reported as a "
        "single PASS/FAIL line")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or rep.when != "call":
        return
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:
        return
    number, label = marker.args
    verdict = "PASS" if rep.passed else "FAIL"
    reporter.write_line(f"acceptance {number:2d} {label}: {verdict}")
