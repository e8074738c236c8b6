"""Each output check accepts a report built from its own references and
rejects the same report with one number doctored."""
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

DAWSON = (1.0, 0.7647820759741586)      # beta, sigma = 0.8 sigma_c
COSINE = (12.8, math.sqrt(2.0))


@pytest.fixture(scope="module")
def outer_root():
    return checks.dawson_outer_root(*DAWSON)


def cosine_spectrum(beta, sigma):
    blocks = []
    for m in checks.cosine_roots(beta, sigma):
        rate = checks.cosine_rate(beta, sigma, m)
        blocks.append({"m_root": m, "lambda_i": [float(k) for k in range(13)],
                       "lambda_star": rate if rate > 0 else None,
                       "verdict": "unstable" if rate > 0
                       else "stable-indicator"})
    return {"roots": blocks}


def test_sigma_c_off_by_1e6_is_rejected():
    ref = checks.dawson_sigma_c()
    assert checks.check_sigma_c([{"sigma_c": ref}, {"sigma_c": ref}]).passed
    assert not checks.check_sigma_c(
        [{"sigma_c": ref}, {"sigma_c": ref + 1e-6}]).passed


def test_cosine_lambda_star_off_by_1e5_is_rejected():
    spec = cosine_spectrum(*COSINE)
    assert checks.check_cosine_rates(spec, *COSINE).passed
    unstable = [b for b in spec["roots"] if b["verdict"] == "unstable"]
    assert len(unstable) == 2 and len(spec["roots"]) == 5
    unstable[0]["lambda_star"] += 1e-5
    assert not checks.check_cosine_rates(spec, *COSINE).passed


def test_cosine_roots_and_ladder_are_checked():
    roots = checks.cosine_roots(*COSINE)
    assert checks.check_cosine_roots({"roots": roots}, *COSINE).passed
    assert not checks.check_cosine_roots({"roots": roots[:-1]},
                                         *COSINE).passed
    spec = cosine_spectrum(*COSINE)
    assert checks.check_cosine_ladder(spec).passed
    spec["roots"][0]["lambda_i"][10] += 1e-7
    assert not checks.check_cosine_ladder(spec).passed
    # a root that reports only lambda_0..lambda_3 cannot show the ladder
    short = cosine_spectrum(*COSINE)
    short["roots"][2]["lambda_i"] = short["roots"][2]["lambda_i"][:4]
    assert not checks.check_cosine_ladder(short).passed


def test_dawson_root_with_psi_1e6_is_rejected(outer_root):
    r = outer_root
    assert checks.check_dawson_roots({"roots": [-r, 0.0, r]}, *DAWSON).passed
    h = 1e-4
    slope = (checks.dawson_psi(*DAWSON, r + h)
             - checks.dawson_psi(*DAWSON, r - h)) / (2 * h)
    off = r + 1e-6 / abs(slope)
    assert abs(checks.dawson_psi(*DAWSON, off)) == pytest.approx(1e-6,
                                                                 rel=1e-3)
    # symmetric, so only the |psi| clause can reject it
    doctored = {"roots": [-off, 0.0, off]}
    assert not checks.check_dawson_roots(doctored, *DAWSON).passed


def test_dawson_s0_is_checked(outer_root):
    beta, sigma = DAWSON
    logp = checks.dawson_log_density(beta, sigma)
    roots = [-outer_root, 0.0, outer_root]
    s0 = [2 * beta / sigma ** 2 * checks.gibbs_moments(logp, r)[1]
          for r in roots]
    rep = {"roots": roots, "s0_per_root": s0}
    assert checks.check_dawson_s0(rep, *DAWSON).passed
    rep["s0_per_root"][1] += 1e-5
    assert not checks.check_dawson_s0(rep, *DAWSON).passed


def test_fp_final_branch_on_the_wrong_side_is_rejected(outer_root):
    rep = {"initial_pairing": 6.4e-4, "final_branch": outer_root}
    assert checks.check_final_branch(rep, *DAWSON).passed
    rep["final_branch"] = -outer_root
    assert not checks.check_final_branch(rep, *DAWSON).passed


def test_w1_initial_scaled_by_3_is_rejected():
    n = 100000
    floor = checks.w1_floor(*DAWSON, 0.0, n)
    assert floor == pytest.approx(2.3e-3, rel=0.05)
    rep = {"w1_initial": floor, "m_root": 0.0}
    assert checks.check_w1_initial(rep, *DAWSON, n).passed
    rep["w1_initial"] = 3 * floor
    assert not checks.check_w1_initial(rep, *DAWSON, n).passed


def test_fp_rate_and_particle_rate_claim():
    lam = 0.18796
    ok = {"status": "ok", "fitted_rate": lam * 1.005, "lambda_star": lam}
    assert checks.check_fp_rate(ok).passed
    assert not checks.check_fp_rate({**ok, "fitted_rate": lam * 1.02}).passed
    assert checks.check_rate_claim(ok).passed
    noise = checks.check_rate_claim({**ok, "fitted_rate": 2.28})
    assert not noise.passed and noise.known_fault
    assert checks.check_rate_claim({**ok, "status": "inconclusive",
                                    "fitted_rate": None}).passed


def test_exit_status_is_checked():
    assert checks.check_exit("sweep", "dawson", 0).passed
    # a command that wrote its reports and then failed
    assert not checks.check_exit("sweep", "dawson", 1).passed
    assert not checks.check_exit("instability", "fp", 2).passed
    # only a particle escape run may end inconclusive
    assert checks.check_exit("instability", "particles", 2).passed
    assert not checks.check_exit("instability", "particles", -9).passed
