from random import Random

import numpy as np
import pytest

from nilcomm import (
    FULL,
    UPPER,
    V_TYPE,
    MatrixShape,
    make_product_module,
    make_zn,
    matrix_module,
    regular_module,
)
from nilcomm import rings


def draw_ids(rng: Random, count: int, *sizes: int) -> np.ndarray:
    """count rows of seeded ids, column j below sizes[j]: the tests' reference
    draw, one 64-bit word per id taken modulo its size."""
    words = np.frombuffer(rng.randbytes(8 * count * len(sizes)), dtype="<u8")
    return (words.reshape(count, len(sizes)) % np.array(sizes, dtype=np.uint64)).astype(np.int64)


def record_sampled_draws(monkeypatch):
    """Record what a sampled axiom check draws: the rows it hands to each
    first_broken call of the shared checker and the byte count of each
    randbytes call.  Returns the two lists, filled as it runs."""
    checked, draws = [], []
    first_broken, randbytes = rings.first_broken, Random.randbytes
    monkeypatch.setattr(rings, "first_broken", lambda structure, rows, *rest: (
        checked.append(rows.tolist()), first_broken(structure, rows, *rest)))
    monkeypatch.setattr(Random, "randbytes", lambda rng, n: (
        draws.append(n), randbytes(rng, n))[1])
    return checked, draws


_LOOP_PRODUCTS = {}


def loop_products(structure, expr, loop):
    """Drawn (left, right) id columns and loop's product at each, kept per
    expr: every pair up to 256 elements, else 2048 seeded ones."""
    if expr not in _LOOP_PRODUCTS:
        left = getattr(structure, "ring", structure).size
        if left * structure.size <= 256 ** 2:
            a, b = (x.ravel() for x in np.meshgrid(np.arange(left), np.arange(structure.size)))
        else:
            a, b = draw_ids(Random(11), 2048, left, structure.size).T
        _LOOP_PRODUCTS[expr] = a, b, [loop(structure, x, y) for x, y in zip(a.tolist(), b.tolist())]
    return _LOOP_PRODUCTS[expr]


def zn_module(n):
    return regular_module(make_zn(n))


def mat_mod(kind, n, base_n):
    base = make_zn(base_n)
    return matrix_module(MatrixShape(kind, n), base, regular_module(base))


@pytest.fixture(scope="session")
def z4_module():
    return zn_module(4)


@pytest.fixture(scope="session")
def z6_module():
    return zn_module(6)


@pytest.fixture(scope="session")
def z12_module():
    return zn_module(12)


@pytest.fixture(scope="session")
def m2z2_module():
    return mat_mod(FULL, 2, 2)


@pytest.fixture(scope="session")
def t2z2_module():
    return mat_mod(UPPER, 2, 2)


@pytest.fixture(scope="session")
def t2z4_module():
    return mat_mod(UPPER, 2, 4)


@pytest.fixture(scope="session")
def v2z2_module():
    return mat_mod(V_TYPE, 2, 2)


@pytest.fixture(scope="session")
def m4z2_module():
    return mat_mod(FULL, 4, 2)


@pytest.fixture(scope="session")
def hierarchy_zoo(m2z2_module, t2z2_module, t2z4_module, v2z2_module):
    """Small and medium modules the property suites sweep across."""
    from nilcomm import cyclic_submodule, induced_module, zn_reduction_hom

    modules = [zn_module(n) for n in range(2, 17)]
    modules += [m2z2_module, t2z2_module, t2z4_module, v2z2_module]
    modules.append(make_product_module([zn_module(3), zn_module(3)]))
    modules.append(make_product_module([zn_module(2), zn_module(2)]))
    modules.append(cyclic_submodule(zn_module(12), 2))
    modules.append(induced_module(zn_reduction_hom(8, 4), zn_module(4)))
    return modules
