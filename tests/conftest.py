"""Shared fixtures."""

import pytest

import opa.spaces


@pytest.fixture
def summed_terms(monkeypatch):
    """The (k_lo, k_hi) index range of every block of terms that
    opa.spaces.falling_product_sum adds one by one, in call order."""
    calls = []
    terms = opa.spaces._weighted_terms

    def recording(space, j, l, power, k_lo, k_hi):
        calls.append((k_lo, k_hi))
        return terms(space, j, l, power, k_lo, k_hi)

    monkeypatch.setattr(opa.spaces, "_weighted_terms", recording)
    return calls
