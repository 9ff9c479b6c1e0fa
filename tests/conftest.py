"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The process pools built, counted by a stand-in for
    ``ProcessPoolExecutor`` that builds the real one."""
    built = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(executor(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return built
