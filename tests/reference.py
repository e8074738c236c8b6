"""Reference code that only the tests run: start states and single
sub-steps that the checks compare the program against."""
import numpy as np

from mvstab.fokkerplanck import FpState, state_from_density


def init_from_model(model, grid, m):
    """Continuum Gibbs density of the frozen dynamics, sampled on cells."""
    lg = model.log_gibbs(grid.centers, float(m))
    rho = np.exp(lg - lg.max())
    return state_from_density(rho, model, grid)


def backward_euler(stepper, state, h, at=None):
    """One backward Euler sub-step over h from ``state`` of the equation
    linearized at ``at`` (``state`` itself by default), through the
    stepper's own rates, coupling column, solve and Sherman-Morrison
    update.  BE(dt) and the first BE(dt/2) of ``FpStepper.step`` start
    from its state, the second BE(dt/2) from the first, and all three
    are linearized at the step's state."""
    at = state if at is None else at
    rates = stepper.flux_coefficients(at.m)
    y, z = stepper._solve(rates, h, state.rho,
                          stepper.coupling(rates, at.rho))
    rho = stepper._close(y, z, stepper._denominator(z, h), at.m)
    return FpState(rho=rho, t=state.t + h, m=stepper._m(rho))
