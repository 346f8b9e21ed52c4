"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def qcount_calls(monkeypatch):
    """count(func) records the calls to a qcount function through every qcount binding of it."""

    def count(func):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("qcount") and (
                getattr(module, func.__name__, None) is func
            ):
                monkeypatch.setattr(module, func.__name__, counting)
        return calls

    return count
