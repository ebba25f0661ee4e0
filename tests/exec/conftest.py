"""Shared fixtures for the suite-executor tests."""

from __future__ import annotations

import pytest

from tests.exec.factories import canonical_records, make_suite
from tests.helpers import run_scenarios


@pytest.fixture()
def suite():
    return make_suite()


@pytest.fixture()
def serial_records(suite):
    return canonical_records(run_scenarios(suite))
