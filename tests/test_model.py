from dataclasses import replace

import numpy as np
import pytest

from mvstab.model import (build_model, cosine_model, dawson_model,
                          rescaled_double_well_model)

ALL_MODELS = [
    dawson_model(beta=1.0, sigma=0.6),
    cosine_model(beta=2.0),
    rescaled_double_well_model(beta=1.0, sigma=0.7),
]


class TestDrift:
    def test_odd_at_origin(self):
        m = dawson_model(beta=1.0, sigma=0.5)
        assert m.drift(0.0, 0.0) == 0.0

    def test_dawson_substitution(self):
        # -(x^3 - x) - beta (x - m) at beta=1, x=1, m=0
        m = dawson_model(beta=1.0, sigma=0.5)
        assert m.drift(1.0, 0.0) == pytest.approx(-1.0)

    def test_cosine_substitution(self):
        m = cosine_model(beta=2.0)
        assert m.drift(0.0, 0.3) == pytest.approx(0.6)

    def test_decomposition(self):
        for m in ALL_MODELS:
            x = np.linspace(-2, 2, 11)
            for mv in (-0.4, 0.0, 0.9):
                assert np.allclose(m.drift(x, mv),
                                   m.a(x) + m.beta * m.c(x) * mv)

    def test_symmetric_models_flip(self):
        for m in ALL_MODELS:
            if not m.symmetric:
                continue
            x = np.linspace(-2.5, 2.5, 17)
            assert np.allclose(m.drift(-x, -0.37), -m.drift(x, 0.37),
                               atol=1e-14)


class TestLogGibbs:
    def test_cosine_exact_gaussian_exponent(self):
        # the log-density is unnormalized: the tilt drops the constant
        # -beta^2 m^2 / sigma^2, so compare both sides less their value
        # at x = 0
        m = cosine_model(beta=2.0)
        x = np.linspace(-4, 7, 23)
        lg = m.log_gibbs(x, 0.4) - m.log_gibbs(np.array(0.0), 0.4)
        assert np.allclose(lg, -(x - 0.8) ** 2 / 2 + 0.8 ** 2 / 2)

    def test_dawson_even_at_symmetric_point(self):
        m = dawson_model(beta=1.0, sigma=0.6)
        x = np.linspace(0.1, 2.5, 13)
        assert np.allclose(m.log_gibbs(x, 0.0), m.log_gibbs(-x, 0.0))

    def test_rescaled_value_at_origin(self):
        m = rescaled_double_well_model(beta=1.0, sigma=0.7)
        assert m.log_gibbs(np.array(0.0), 0.0) == pytest.approx(
            -1.0 / (2 * 0.7 ** 2))

    def test_occupied_keeps_the_28_nat_edge(self):
        # both step-size defaults take their support from this one rule
        m = replace(cosine_model(), log_gibbs0=lambda x: -np.abs(x))
        x = np.array([-30.0, -28.0, 0.0, 27.5, 28.5])
        np.testing.assert_array_equal(m.occupied(x, "unused"),
                                      [-28.0, 0.0, 27.5])
        holed = replace(m, log_gibbs0=lambda x: np.where(x == 0.0, np.nan,
                                                          -np.abs(x)))
        with pytest.raises(ValueError, match="cosine is not finite at x=0; "
                                             "the test needs it"):
            holed.occupied(x, "the test needs it")


class TestFrozenDriftConsistency:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("mval", [0.0, 0.35])
    def test_gradient_identity(self, model, mval):
        # the Gibbs family must satisfy (sigma^2/2) d/dx log_gibbs = b(x, m);
        # central finite difference on a grid inside the support
        x = np.linspace(-2.0, 2.0, 2001)
        h = 1e-6
        dlog = (model.log_gibbs(x + h, mval)
                - model.log_gibbs(x - h, mval)) / (2 * h)
        lhs = 0.5 * model.sigma ** 2 * dlog
        assert np.abs(lhs - model.drift(x, mval)).max() < 1e-6

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_coupling_antiderivative(self, model):
        # the tilt kappa m v carries the gradient identity from m = 0 to
        # every m only if v' = c, the one promise a model still keeps
        x = np.linspace(-2.0, 2.0, 2001)
        h = 1e-6
        dv = (model.coupling_v(x + h) - model.coupling_v(x - h)) / (2 * h)
        assert np.abs(dv - model.c(x)).max() < 1e-8


class TestRegistry:
    def test_build_by_name(self):
        m = build_model("dawson", beta=0.5, sigma=0.8)
        assert m.beta == 0.5 and m.sigma == 0.8

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("pitchfork", beta=1.0, sigma=1.0)

    def test_with_params_keeps_family(self):
        m = dawson_model(beta=1.0, sigma=0.5).with_params(sigma=0.9)
        assert m.sigma == 0.9 and m.name == "dawson"

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            dawson_model(beta=1.0, sigma=0.0)
