import numpy as np
import pytest

from mvstab.model import cosine_model, dawson_model
from mvstab.numerics import find_roots
from mvstab.spectrum import analyze_branch
from mvstab.stationary import GridSpec, build_gibbs

# frozen bisection value; cross-checked against the closed form
# 2 sqrt(2) Gamma(3/4)/Gamma(1/4) in test_stationary
SIGMA_C_DAWSON_BETA1 = 0.9559775949676983


@pytest.fixture(scope="session")
def dawson_sub():
    """Dawson family below the critical noise, at the symmetric root."""
    mdl = dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)
    return analyze_branch(build_gibbs(mdl, 0.0), 80)


@pytest.fixture(scope="session")
def dawson_super():
    """Dawson family above the critical noise (unique stable branch)."""
    mdl = dawson_model(beta=1.0, sigma=1.2 * SIGMA_C_DAWSON_BETA1)
    return analyze_branch(build_gibbs(mdl, 0.0), 80)


@pytest.fixture(scope="session")
def cosine_unstable():
    """Cosine model at a root with a positive closed-form growth rate."""
    beta = 12.8
    mdl = cosine_model(beta=beta)
    roots = find_roots(lambda m: np.exp(-0.5) * np.cos(beta * m) - m,
                       (-1, 1), 4001, 1e-13)
    m0 = next(r for r in roots if beta * np.sin(beta * r) < -np.sqrt(np.e)
              and r > 0)
    return analyze_branch(build_gibbs(mdl, m0, GridSpec(panel_degree=60)), 40)
