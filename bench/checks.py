"""Checks of mvstab's outputs against computations made apart from it.

Every reference here is computed from the model definitions with scipy
quadrature or a closed form; nothing imports mvstab.  Each check returns
an ``Outcome``.  The particle rate claim is marked ``known_fault``: it
fails on every run because ``cmd_instability`` fits noise below the
pairing's floor, and it is counted as a failed operation rather than as
a wrong benchmark.
"""
from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, special

ROOT_TOL = 1e-8          # |psi| at a reported root, roots against closed forms
S0_TOL = 1e-6            # covariance indicator against quadrature
SIGMA_C_TOL = 1e-8
LADDER_TOL = 1e-8        # cosine eigenvalues lambda_k = k
COSINE_RATE_TOL = 1e-6
FP_RATE_TOL = 0.01       # relative, fitted FP rate against lambda_star
PARTICLE_RATE_TOL = 0.5  # relative, particle rate claim
M_HAT_SE = 4.0
W1_FACTOR = 2.0
# exit codes other than 0 that a (command, config) may end with; 2 is
# an inconclusive escape run, which a noisy particle run may report
ACCEPTED_EXITS = {("instability", "particles"): (0, 2)}


@dataclass(frozen=True)
class Outcome:
    name: str
    passed: bool
    detail: str
    known_fault: bool = False


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_csv(path) -> dict[str, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {k: np.atleast_1d(data[k]) for k in data.dtype.names}


# ---- references -----------------------------------------------------------

def dawson_log_density(beta: float, sigma: float):
    """log of the frozen Gibbs law exp(-2U/sigma^2) for the drift
    b(x, m) = -x^3 + (1 - beta) x + beta m, so U = x^4/4 - (1 - beta)
    x^2/2 - beta m x."""
    def logp(x, m):
        return -(2.0 / sigma ** 2) * (0.25 * x ** 4 - 0.5 * (1.0 - beta) * x * x
                                      - beta * m * x)
    return logp


def gibbs_moments(logp, m: float, half_width: float = 6.0):
    """Mean and variance of exp(logp(., m)) by adaptive quadrature."""
    xs = np.linspace(-half_width, half_width, 4001)
    shift = float(np.max(logp(xs, m)))

    def q(f):
        return integrate.quad(lambda x: f(x) * math.exp(logp(x, m) - shift),
                              -half_width, half_width, epsabs=1e-13,
                              epsrel=1e-11, limit=400)[0]

    z = q(lambda x: 1.0)
    mean = q(lambda x: x) / z
    var = q(lambda x: (x - mean) ** 2) / z
    return mean, var


def dawson_psi(beta: float, sigma: float, m: float) -> float:
    return gibbs_moments(dawson_log_density(beta, sigma), m)[0] - m


def dawson_outer_root(beta: float, sigma: float) -> float:
    """Positive root of psi below the critical noise (brentq on quad)."""
    return optimize.brentq(lambda m: dawson_psi(beta, sigma, m), 1e-3, 2.0,
                           xtol=1e-14, rtol=1e-15)


def dawson_sigma_c() -> float:
    """At beta = 1 the m = 0 law is exp(-x^4 / (2 sigma^2)), whose
    variance sqrt(2) sigma Gamma(3/4)/Gamma(1/4) makes S0 = 1 at
    sigma_c = 2 sqrt(2) Gamma(3/4) / Gamma(1/4)."""
    return 2.0 * math.sqrt(2.0) * special.gamma(0.75) / special.gamma(0.25)


def cosine_psi(beta: float, sigma: float, m):
    """The frozen law is N(beta m, sigma^2/2), so E cos X = e^{-sigma^2/4}
    cos(beta m)."""
    return math.exp(-sigma ** 2 / 4.0) * np.cos(beta * m) - m


def cosine_roots(beta: float, sigma: float, n_scan: int = 200001) -> list:
    """Every zero of the closed-form psi on [-1, 1] by a dense scan."""
    ms = np.linspace(-1.0, 1.0, n_scan)
    vals = cosine_psi(beta, sigma, ms)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]
    roots = [optimize.brentq(lambda m: cosine_psi(beta, sigma, m),
                             ms[i], ms[i + 1], xtol=1e-15, rtol=1e-15)
             for i in idx]
    return sorted(set(roots))


def cosine_rate(beta: float, sigma: float, m: float) -> float:
    """Growth rate of the mean at a cosine branch: with X Gaussian,
    d(mu)/dt = -mu + beta m and dm = -e^{-sigma^2/4} sin(beta m) d(mu)."""
    return -1.0 - math.exp(-sigma ** 2 / 4.0) * beta * math.sin(beta * m)


def w1_floor(beta: float, sigma: float, m: float, n: int) -> float:
    """Mean W1 between n i.i.d. draws and their law, to leading order:
    sqrt(2 / (pi n)) * int sqrt(F (1 - F)) dx."""
    logp = dawson_log_density(beta, sigma)
    xs = np.linspace(-6.0, 6.0, 120001)
    dens = np.exp(logp(xs, m) - np.max(logp(xs, m)))
    cdf = integrate.cumulative_trapezoid(dens, xs, initial=0.0)
    cdf /= cdf[-1]
    return math.sqrt(2.0 / (math.pi * n)) * integrate.trapezoid(
        np.sqrt(np.clip(cdf * (1.0 - cdf), 0.0, None)), xs)


# ---- checks ---------------------------------------------------------------

def check_dawson_roots(rep: dict, beta: float, sigma: float) -> Outcome:
    roots = sorted(rep["roots"])
    if len(roots) != 3:
        return Outcome("dawson.roots", False, f"{len(roots)} roots, want 3")
    asym = max(abs(roots[0] + roots[2]), abs(roots[1]))
    psi = max(abs(dawson_psi(beta, sigma, r)) for r in roots)
    ok = asym < ROOT_TOL and psi < ROOT_TOL
    return Outcome("dawson.roots", ok,
                   f"odd-symmetry gap {asym:.2e}, max |psi| by quad {psi:.2e}")


def check_dawson_s0(rep: dict, beta: float, sigma: float) -> Outcome:
    logp = dawson_log_density(beta, sigma)
    err = max(abs(s0 - 2.0 * beta / sigma ** 2 * gibbs_moments(logp, r)[1])
              for r, s0 in zip(rep["roots"], rep["s0_per_root"]))
    return Outcome("dawson.s0", err < S0_TOL,
                   f"max |S0 - (2 beta/sigma^2) Var| = {err:.2e}")


def check_sigma_c(reports: list[dict]) -> Outcome:
    ref = dawson_sigma_c()
    vals = [r["sigma_c"] for r in reports]
    if any(v is None for v in vals):
        return Outcome("dawson.sigma_c", False, "sigma_c missing")
    err = max(abs(v - ref) for v in vals)
    return Outcome("dawson.sigma_c", err < SIGMA_C_TOL,
                   f"max |sigma_c - 2 sqrt2 G(3/4)/G(1/4)| = {err:.2e}")


def check_dawson_verdicts(spec: dict) -> Outcome:
    blocks = sorted(spec["roots"], key=lambda b: b["m_root"])
    verdicts = [b["verdict"] for b in blocks]
    if len(blocks) != 3 or verdicts.count("unstable") != 1 \
            or verdicts[1] != "unstable":
        return Outcome("dawson.verdicts", False, f"verdicts {verdicts}")
    mid = blocks[1]
    lam = mid["lambda_star"]
    gap = abs(lam - mid["lambda0"]["re"]) if lam is not None else math.inf
    ok = lam is not None and lam > 0 and gap < ROOT_TOL
    return Outcome("dawson.verdicts", ok,
                   f"middle lambda_star {lam}, |lambda_star - lambda0| "
                   f"{gap:.2e}")


def check_sweep(rows: dict[str, np.ndarray], sigma_c: float) -> Outcome:
    below = rows["sigma"] < sigma_c
    counts_ok = bool(np.all(rows["branch_count"][below] == 3)
                     and np.all(rows["branch_count"][~below] == 1))
    lam = rows["lambda_star"]
    unstable = np.isfinite(lam) & (lam > 0)
    match = bool(np.array_equal(unstable, rows["s0_zero"] > 1.0))
    return Outcome("dawson.sweep", counts_ok and match,
                   f"branch counts by side of sigma_c ok={counts_ok}, "
                   f"lambda_star > 0 exactly where S0 > 1 ok={match}")


def check_cosine_roots(rep: dict, beta: float, sigma: float) -> Outcome:
    ref = cosine_roots(beta, sigma)
    got = sorted(rep["roots"])
    if len(got) != len(ref):
        return Outcome("cosine.roots", False,
                       f"{len(got)} roots, closed form has {len(ref)}")
    err = max(abs(a - b) for a, b in zip(got, ref))
    return Outcome("cosine.roots", err < ROOT_TOL,
                   f"{len(ref)} roots, max gap to closed form {err:.2e}")


def check_cosine_ladder(spec: dict) -> Outcome:
    short = [b["m_root"] for b in spec["roots"] if len(b["lambda_i"]) < 11]
    if short:
        return Outcome("cosine.ladder", False,
                       f"fewer than 11 eigenvalues at roots {short}")
    err = max(abs(lam - k) for b in spec["roots"]
              for k, lam in enumerate(b["lambda_i"][:11]))
    return Outcome("cosine.ladder", err < LADDER_TOL,
                   f"max |lambda_k - k|, k <= 10: {err:.2e}")


def check_cosine_rates(spec: dict, beta: float, sigma: float) -> Outcome:
    worst = 0.0
    bad = []
    for b in spec["roots"]:
        ref = cosine_rate(beta, sigma, b["m_root"])
        if ref > 0:
            lam = b["lambda_star"]
            err = math.inf if lam is None else abs(lam - ref)
            worst = max(worst, err)
            if not (err < COSINE_RATE_TOL and b["verdict"] == "unstable"):
                bad.append(b["m_root"])
        elif b["verdict"] == "unstable":
            bad.append(b["m_root"])
    n_unstable = sum(cosine_rate(beta, sigma, b["m_root"]) > 0
                     for b in spec["roots"])
    return Outcome("cosine.rates", not bad,
                   f"{n_unstable} unstable by closed form, max |lambda_star "
                   f"- ref| {worst:.2e}, disagreeing roots {bad}")


def check_fp_rate(rep: dict) -> Outcome:
    fitted, lam = rep.get("fitted_rate"), rep["lambda_star"]
    err = math.inf if fitted is None else abs(fitted - lam) / lam
    return Outcome("fp.rate", rep["status"] == "ok" and err < FP_RATE_TOL,
                   f"status {rep['status']}, fitted {fitted} vs lambda_star "
                   f"{lam:.6g} (rel. err {err:.2e})")


def check_final_branch(rep: dict, beta: float, sigma: float) -> Outcome:
    side = math.copysign(1.0, rep["initial_pairing"])
    ref = side * dawson_outer_root(beta, sigma)
    err = abs(rep["final_branch"] - ref)
    return Outcome("fp.final_branch",
                   rep["initial_pairing"] != 0 and err < 1e-6,
                   f"final_branch {rep['final_branch']:.9f}, root on the "
                   f"pairing's side {ref:.9f}")


def check_series(rows: dict[str, np.ndarray], t_end: float) -> Outcome:
    finite = all(np.all(np.isfinite(v)) for v in rows.values())
    reached = float(rows["t"][-1]) >= t_end - 1e-9
    return Outcome("particles.series", finite and reached,
                   f"finite={finite}, last t {rows['t'][-1]:.6g} of {t_end}")


def check_m_hat0(rows: dict[str, np.ndarray], rep: dict, beta: float,
                 sigma: float, n: int) -> Outcome:
    """m_hat(0) against the mean of mu_delta = (1 + delta g_M) mu.

    The mean of mu comes from quadrature; |g_M| <= 1 in L^2(mu), so by
    Cauchy-Schwarz mu_delta's mean sits within delta * sd(mu) of it.
    """
    mean, var = gibbs_moments(dawson_log_density(beta, sigma), rep["m_root"])
    sd = math.sqrt(var)
    se = sd / math.sqrt(n)
    gap = abs(float(rows["m"][0]) - mean)
    limit = M_HAT_SE * se + abs(rep["delta"]) * sd
    return Outcome("particles.m_hat0", gap <= limit,
                   f"|m_hat(0) - mean| {gap:.2e} <= 4 SE + delta sd "
                   f"{limit:.2e}")


def check_w1_initial(rep: dict, beta: float, sigma: float, n: int) -> Outcome:
    floor = w1_floor(beta, sigma, rep["m_root"], n)
    ratio = rep["w1_initial"] / floor
    return Outcome("particles.w1_initial",
                   1.0 / W1_FACTOR <= ratio <= W1_FACTOR,
                   f"w1_initial {rep['w1_initial']:.3e}, i.i.d. floor "
                   f"{floor:.3e} (ratio {ratio:.2f})")


def check_rate_claim(rep: dict) -> Outcome:
    """A report with status ok must give its rate within 50%."""
    fitted, lam = rep.get("fitted_rate"), rep["lambda_star"]
    if rep["status"] != "ok":
        return Outcome("particles.rate_claim", True,
                       f"status {rep['status']}: no rate claimed",
                       known_fault=True)
    err = abs(fitted - lam) / lam
    return Outcome("particles.rate_claim", err <= PARTICLE_RATE_TOL,
                   f"status ok with fitted {fitted:.4g} vs lambda_star "
                   f"{lam:.4g} (rel. err {err:.3g})", known_fault=True)


def check_exit(command: str, config: str, code: int) -> Outcome:
    """A command's exit status: 0, or mvstab's 2 (inconclusive) where
    the run may honestly end without a rate."""
    accepted = ACCEPTED_EXITS.get((command, config), (0,))
    return Outcome(f"{command}.{config}.exit", code in accepted,
                   f"exit {code}, accepted {accepted}")


# ---- workloads ------------------------------------------------------------

def _config(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    return cp


def _model_params(path: Path) -> tuple[float, float]:
    cp = _config(path)
    return cp.getfloat("model", "beta"), cp.getfloat("model", "sigma")


def _branches(outs, configs):
    beta, sigma = _model_params(configs["dawson"])
    cbeta, csigma = _model_params(configs["cosine"])
    stat = load_json(outs["stationary", "dawson"] / "stationary.json")
    spec = load_json(outs["spectrum", "dawson"] / "spectrum.json")
    sweep_dir = outs["sweep", "dawson"]
    cstat = load_json(outs["stationary", "cosine"] / "stationary.json")
    cspec = load_json(outs["spectrum", "cosine"] / "spectrum.json")
    return [
        lambda: check_dawson_roots(stat, beta, sigma),
        lambda: check_dawson_s0(stat, beta, sigma),
        lambda: check_sigma_c([stat, load_json(sweep_dir / "sweep.json")]),
        lambda: check_dawson_verdicts(spec),
        lambda: check_sweep(load_csv(sweep_dir / "sweep.csv"),
                            dawson_sigma_c()),
        lambda: check_cosine_roots(cstat, cbeta, csigma),
        lambda: check_cosine_ladder(cspec),
        lambda: check_cosine_rates(cspec, cbeta, csigma),
    ]


def _fp(outs, configs):
    beta, sigma = _model_params(configs["fp"])
    rep = load_json(outs["instability", "fp"] / "instability.json")
    return [lambda: check_fp_rate(rep),
            lambda: check_final_branch(rep, beta, sigma)]


def _particles(outs, configs):
    beta, sigma = _model_params(configs["particles"])
    sim = _config(configs["particles"])["simulation"]
    t_end, n = sim.getfloat("t_end"), sim.getint("n_particles")
    out = outs["instability", "particles"]
    rep = load_json(out / "instability.json")
    rows = load_csv(out / "series.csv")
    return [lambda: check_series(rows, t_end),
            lambda: check_m_hat0(rows, rep, beta, sigma, n),
            lambda: check_w1_initial(rep, beta, sigma, n),
            lambda: check_rate_claim(rep)]


CHECKS = {"branches": (_branches, 8), "fp-escape": (_fp, 2),
          "particle-escape": (_particles, 4)}


def run_checks(workload: str, outs: dict, configs: dict) -> list[Outcome]:
    """All checks of one round; missing or unreadable outputs fail every
    check of the workload, so each round attempts the same number."""
    build, count = CHECKS[workload]
    try:
        pending = build(outs, configs)
    except (OSError, ValueError, KeyError) as exc:
        return [Outcome(f"{workload}.outputs", False, f"unreadable: {exc}")
                for _ in range(count)]
    results = []
    for check in pending:
        try:
            results.append(check())
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            results.append(Outcome(f"{workload}.check", False,
                                   f"{type(exc).__name__}: {exc}"))
    return results
