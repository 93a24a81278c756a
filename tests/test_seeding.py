"""Tests for seed derivation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.seeding import derive_seed, derive_seeds


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.text(max_size=24), st.integers(0, 120))
def test_derive_seeds_equal_derive_seed(master, label, count):
    assert list(derive_seeds(master, label, count)) == [
        derive_seed(master, label, i) for i in range(count)]
