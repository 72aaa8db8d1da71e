"""Fixtures shared by every test module."""
import pytest


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    # HARDCORE_SEED overrides every --seed, so a value exported by the caller would move the pinned outputs;
    # tests of the override set it themselves
    monkeypatch.delenv("HARDCORE_SEED", raising=False)
