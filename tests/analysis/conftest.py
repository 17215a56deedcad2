"""Session fixtures for the analysis tests."""

import pytest

from tests.analysis.ledger import Ledger


@pytest.fixture(scope="session")
def ledger(tmp_path_factory):
    """Small-scale experiment results and claim checks, run once each."""
    return Ledger(str(tmp_path_factory.mktemp("ledger-cache")))
