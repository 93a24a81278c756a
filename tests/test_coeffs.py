"""Tests for the on-demand coefficient family."""

import ast
import inspect
import random
import textwrap

import pytest

from timecheck.coeffs import RandomSeeds, coefficient_at
from timecheck.errors import IndexOutOfField
from timecheck.field import M61, FieldParams


def seeds(r, p=13, x=0):
    return RandomSeeds(tuple(r), FieldParams(p, x))


def coefficient_oracle(s: RandomSeeds, index: int) -> int:
    """Materializes the (index+1)^j powers; independent of the Horner path."""
    p = s.params.p
    return sum(r_j * pow(index + 1, j, p) for j, r_j in enumerate(s.r)) % p


def test_validation():
    with pytest.raises(ValueError):
        seeds([])
    with pytest.raises(ValueError):
        seeds([13])  # out of field
    assert seeds([1, 2, 3]).k == 3


def test_index_out_of_field():
    s = seeds([1, 2], p=13)
    coefficient_at(s, 11)  # index+1 = 12 < 13, fine
    with pytest.raises(IndexOutOfField):
        coefficient_at(s, 12)
    with pytest.raises(IndexOutOfField):
        coefficient_at(s, -1)


def test_oracle_agreement_randomized():
    rng = random.Random(99)
    for _ in range(10_000):
        p = rng.choice([13, 17, 1009, M61])
        k = rng.randint(1, 6)
        s = seeds([rng.randrange(p) for _ in range(k)], p=p)
        index = rng.randrange(min(p - 1, 1 << 20))
        assert coefficient_at(s, index) == coefficient_oracle(s, index)


def test_no_materialized_buffers():
    # The on-demand path must never build a coefficient array: no list/dict
    # displays, comprehensions, or append calls in its source.
    src = textwrap.dedent(inspect.getsource(coefficient_at))
    tree = ast.parse(src)
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.List, ast.ListComp, ast.DictComp, ast.SetComp))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr != "append"

