"""Reference code that only the tests run: start states and single
sub-steps that the checks compare the program against, the full
linearized generator in the eigenbasis with its matrix exponential, and
the exact transport distance between two samples."""
import numpy as np
import scipy.linalg

from mvstab.fokkerplanck import FpState, state_from_density
from mvstab.numerics import EigenSystem
from mvstab.spectrum import RankOneCoupling


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


def full_generator_matrix(spectrum: EigenSystem,
                          coupling: RankOneCoupling) -> np.ndarray:
    """Matrix of L + A in the eigenbasis: diag(-lambda) + beta phi ell^T."""
    if coupling.phi_hat.size != spectrum.values.size:
        raise ValueError("spectrum and coupling have mismatched dimensions")
    return (np.diag(-spectrum.values)
            + coupling.beta * np.outer(coupling.phi_hat, coupling.ell))


def linearized_propagate(M: np.ndarray, coeffs: np.ndarray,
                         t: float) -> np.ndarray:
    """Apply exp(t M) to a coefficient vector (scaling and squaring).

    When M carries the exact zero row and column of the constant mode the
    propagation is done on the complementary block, which preserves that
    mode exactly.
    """
    M = np.asarray(M, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    if M.shape[0] != coeffs.shape[0]:
        raise ValueError("matrix and coefficient sizes do not match")
    absc = float(np.linalg.eigvals(M).real.max())
    if t * absc > 700.0:
        raise OverflowError(
            f"t * abscissa = {t * absc:.1f} exceeds 700; the propagated "
            "amplitude overflows double precision")
    if np.all(M[0] == 0.0) and np.all(M[:, 0] == 0.0):
        out = coeffs.copy().astype(float)
        out[1:] = scipy.linalg.expm(t * M[1:, 1:]) @ coeffs[1:]
        return out
    return scipy.linalg.expm(t * M) @ coeffs


def w1_empirical(xs, ys) -> float:
    """Exact 1-D transport distance between two samples.

    Equal sizes reduce to the mean absolute difference of the sorted
    samples; unequal sizes integrate the quantile difference over the
    merged probability breakpoints.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("samples must be nonempty")
    n, m = xs.size, ys.size
    if n == m:
        return float(np.mean(np.abs(xs - ys)))
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], edges, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mid * n).astype(int), n - 1)]
    qy = ys[np.minimum((mid * m).astype(int), m - 1)]
    return float(np.sum(np.abs(qx - qy) * np.diff(edges)))
