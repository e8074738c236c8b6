"""Scalar-coupled mean-field SDE models.

A model describes the 1-D SDE

    dX_t = b(X_t, m_t) dt + sigma dB_t,      m_t = E[g(X_t)],

with drift decomposed as b(x, m) = a(x) + beta * c(x) * m.  The coupling
enters only through the scalar statistic m, which keeps the linearized
interaction exactly rank one.  Each model carries the unnormalized
log-density family log_gibbs(x, m) of the SDE with the coupling frozen
at m; it satisfies the gradient identity (sigma^2/2) d/dx log_gibbs = b.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Func = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarMeanFieldModel:
    """Mean-field model with drift a(x) + beta * c(x) * m and m = E[g(X)].

    ``coupling_v`` is an antiderivative of c; it represents the pairing
    functional f -> integral of c * f' dmu in the energy form and is
    needed by the spectral analysis.  ``symmetric`` flags models with a
    odd, c even and g odd, for which the self-consistency residual is an
    odd function of m.
    """

    name: str
    beta: float
    sigma: float
    a: Func
    c: Func
    g: Func
    coupling_v: Func
    log_gibbs: Callable[[np.ndarray, float], np.ndarray]
    symmetric: bool = False

    def drift(self, x, m: float):
        """Drift b(x, m) = a(x) + beta * c(x) * m."""
        x = np.asarray(x, dtype=float)
        return self.a(x) + (self.beta * m) * self.c(x)

    def with_params(self, sigma: float) -> "ScalarMeanFieldModel":
        """Rebuild the same builtin family at a new noise level."""
        if self.name not in BUILTIN_MODELS:
            raise ValueError(
                f"model {self.name!r} is not a registered builtin; "
                "rebuild it explicitly instead")
        return build_model(self.name, beta=self.beta, sigma=sigma)


def _u0(x):
    return x / np.cbrt(1.0 + x * x)


def _u0_prime(x):
    return (1.0 + x * x / 3.0) / np.cbrt(1.0 + x * x) ** 4


def dawson_model(beta: float = 1.0, sigma: float = 0.5) -> ScalarMeanFieldModel:
    """Double-well drift -(x^3 - x) with linear attraction to the mean.

    b(x, m) = -x^3 + (1 - beta) x + beta m, coupling statistic m = E[X].
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    b2 = beta

    def a(x):
        return x * (1.0 - b2 - x * x)

    def log_gibbs(x, m):
        x2 = x * x
        return -(2.0 / sigma ** 2) * (0.25 * x2 * x2 - 0.5 * x2
                                      + 0.5 * b2 * (x - m) ** 2)

    ident = lambda x: np.asarray(x, dtype=float)
    return ScalarMeanFieldModel(
        name="dawson", beta=beta, sigma=sigma,
        a=a, c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=ident, coupling_v=ident, log_gibbs=log_gibbs, symmetric=True)


def cosine_model(beta: float = 1.0,
                 sigma: float = np.sqrt(2.0)) -> ScalarMeanFieldModel:
    """Ornstein-Uhlenbeck relaxation coupled through m = E[cos X].

    b(x, m) = -x + beta m; the frozen stationary law is Gaussian with
    mean beta*m and variance sigma^2/2 (equal to 1 at the default sigma).
    Not symmetric in the flip sense: g = cos is even.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    b2 = beta

    def log_gibbs(x, m):
        return -(x - b2 * m) ** 2 / sigma ** 2

    return ScalarMeanFieldModel(
        name="cosine", beta=beta, sigma=sigma,
        a=lambda x: -np.asarray(x, dtype=float),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=np.cos, coupling_v=lambda x: np.asarray(x, dtype=float),
        log_gibbs=log_gibbs, symmetric=False)


def rescaled_double_well_model(beta: float = 1.0,
                               sigma: float = 0.5) -> ScalarMeanFieldModel:
    """Double-well dynamics driven through the bounded-slope statistic u0.

    u0(x) = x / (1 + x^2)^(1/3); the drift is

        b(x, m) = u0'(x) * (-x^3/(1+x^2) + (1-beta) x/(1+x^2)^(1/3)
                            + beta m)
                  - sigma^2 x (1 + x^2/9) / ((1 + x^2/3)(1 + x^2)),

    with coupling statistic m = E[u0(X)].  The Gibbs family is

        log_gibbs = -(u0^2 - 1)^2 / (2 sigma^2)
                    - beta (u0 - m)^2 / sigma^2 + log u0'(x);

    substituting u = u0(x) shows its self-consistency residual equals
    the dawson one at the same (beta, sigma).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    b2, s2 = beta, sigma ** 2

    def a(x):
        x = np.asarray(x, dtype=float)
        core = (-x ** 3 / (1.0 + x * x)
                + (1.0 - b2) * x / np.cbrt(1.0 + x * x))
        ito = s2 * x * (1.0 + x * x / 9.0) / ((1.0 + x * x / 3.0)
                                              * (1.0 + x * x))
        return _u0_prime(x) * core - ito

    def log_gibbs(x, m):
        u = _u0(x)
        return (-(u * u - 1.0) ** 2 / (2.0 * s2)
                - b2 * (u - m) ** 2 / s2 + np.log(_u0_prime(x)))

    return ScalarMeanFieldModel(
        name="rescaled_double_well", beta=beta, sigma=sigma,
        a=a, c=_u0_prime, g=_u0, coupling_v=_u0,
        log_gibbs=log_gibbs, symmetric=True)


BUILTIN_MODELS: dict[str, Callable[..., ScalarMeanFieldModel]] = {
    "dawson": dawson_model,
    "cosine": cosine_model,
    "rescaled_double_well": rescaled_double_well_model,
}


def build_model(name: str, beta: float, sigma: float | None = None
                ) -> ScalarMeanFieldModel:
    """Instantiate a builtin model by name."""
    try:
        builder = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; builtins: {sorted(BUILTIN_MODELS)}"
        ) from None
    if sigma is None:
        return builder(beta=beta)
    return builder(beta=beta, sigma=sigma)
