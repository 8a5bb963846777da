import pytest
from hypothesis import Phase, settings

from ainfbench.scalars import FieldSpec
from ainfbench.perturbation import preset_splitting_C, transfer

# Property tests draw the same examples on every run (no example database,
# a fixed seed per test), so a tier-1 run is reproducible; no deadline,
# because a shared 2-core machine times examples unevenly; no shrinking,
# which can take minutes once a property fails, so a fault is reported at
# the example that found it.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=10,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def Q():
    return FieldSpec(0)


@pytest.fixture(scope="session")
def model12(Q):
    """Transferred minimal model through arity 12 (shared, immutable)."""
    return transfer(preset_splitting_C(Q), 12)


@pytest.fixture(scope="session")
def model8(Q):
    return transfer(preset_splitting_C(Q), 8)


@pytest.fixture(scope="session")
def mc8(Q):
    """mc_extend(Q, 1/2, -2/3, 8): a structure with every arity present."""
    from ainfbench.gauge import mc_extend

    return mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 8)


@pytest.fixture(scope="session")
def gh_models(Q):
    """(B, G_*B, H_*G_*B) through arity 9."""
    from ainfbench.cli import gh_pipeline

    return gh_pipeline(Q, 9)
