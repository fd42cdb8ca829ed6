import pytest
from hypothesis import settings

from nilprob.algebra import AlgebraParams
from nilprob.groups import AlgebraGroup
from nilprob.tables import corpus

# Fixed examples on every run, no per-example deadline (numpy's first calls
# are slow), and a bounded count so tier-1 stays quick.
settings.register_profile("nilprob", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("nilprob")


@pytest.fixture(scope="session")
def embed_r1():
    """Vector stacks (N, d) as engine stacks with only a grade-1 part."""
    def embed(eng, vecs):
        return eng.zeros(len(vecs))._replace(r1=vecs % eng.p)
    return embed


@pytest.fixture(scope="session")
def params21() -> AlgebraParams:
    return AlgebraParams.hyperbolic(2, 1)


@pytest.fixture(scope="session")
def params22() -> AlgebraParams:
    return AlgebraParams.hyperbolic(2, 2)


@pytest.fixture(scope="session")
def params31() -> AlgebraParams:
    return AlgebraParams.hyperbolic(3, 1)


@pytest.fixture(scope="session")
def family21(params21) -> AlgebraGroup:
    return AlgebraGroup(params21)


@pytest.fixture(scope="session")
def family22(params22) -> AlgebraGroup:
    return AlgebraGroup(params22)


@pytest.fixture(scope="session")
def family31(params31) -> AlgebraGroup:
    return AlgebraGroup(params31)


@pytest.fixture(scope="session")
def corpus_groups() -> dict:
    return corpus()
