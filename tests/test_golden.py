"""Golden outputs: SHA-256 digests of ``repr(RunResult.without_wallclock())``
for fixed seeds.  A refactor that claims "same results" must leave every
digest here unchanged; a digest may change only with a deliberate change of
results, recorded in CHANGES.md."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sgmopt import (BoxDomain, LabelStrategy, Objective, RngStream, SaConfig,
                    Sense, SgmConfig, default_config, make_objective,
                    random_search, simulated_annealing, solve)

SGM_DIGESTS = {
    ("TP1", 0): "ed27aea4ec9349d06862c17417849b2cf189d1bfb634b44d490f3ca3269e054a",
    ("BEALE", 0): "d3a707f141c2dafdde1839a82ea53b57e1215363d580db824bac86637b1762c2",
    ("F1", 0): "286eea7b23e8ccb1566a989f168c203da854b27915c047fde30e811c70aa002d",
    ("F2", 0): "ac138eeed7867499fb1d488f74372a0430bacb0100b75d8a58f9e918d8765873",
    ("F3", 0): "0508c183bf2735aa1914e4fa41b11c42eb7087864370ba6a1ff63d864856f6fb",
    ("F4", 0): "5d5bb3c076dc57e811209821ec246585fa7bcf44cdb7ace5d4dd7a497c81f774",
    ("F5", 0): "bc977b9256beadcc2907a90f1414f1ed6e42f2164e37b77d1c7d83d1ef0bc1b2",
    ("F4", 1): "b72ef76aee2a6351d71049d41e44db251b611a6e02b5c062f3cd7ba1df3bb8b4",
}

# GRADIENT labeling, seed 0: phase 1 evaluates the cell corners only (the
# gradients are analytic), never their Moore neighbors.
SGM_GRADIENT_DIGESTS = {
    "F1": "97d7d15825a77179d555ae99234feb3f7a4cc903a9f4fad1dff01c9252a0932f",
    "BEALE": "352339d457b52b70dfddcca488e1b27fef5f250a8f9b6dfd83947c9128f479c8",
}

RS_DIGESTS = {
    "F2": "f51fbbd37ee53c763e240c48e0ca27c9d981713ea99b875d59742ebc546bbfeb",
    "F4": "a719bfc3dcdd3d4a775d91ecf98e4329d4c18519dee3e34991b74d50a0605fce",
    "F5": "e85005ab229ceaf693ceb9b59e639d4c68996bc00c04302c05c275fe1d013acb",
}

# Shifted spheres, seed 0, 5,000 evaluations: n=6 labels with the full
# 728-offset Moore set, n=12 with the capped set plus the center hint, and
# n=16 also follows child_containing instead of enumerating children.
SPHERE_DIGESTS = {
    6: "6ab9d931c378eb67787f6edef88799117baf7b16a272196ec73905e63744c86c",
    12: "23d97e9599472443f62cb24954e00445988abebd080f4e8ce478d2232f6a9fd8",
    16: "8451cc06243c2362942b2d450c10f3faaf24d1bd65d048d284110699b3878b5f",
}

# 10,000 draws cross random search's 4,096-row block boundary twice.
RS_LONG_DIGEST = "288d581b24ad9ad57b79169a5d14c40c978656de1015267d86f932631902c337"

# Sense.MAX, seed 0: TP1's maxima lie on the box boundary, so ray sweeps
# run into the box; the negated spheres ("bumps") have interior maxima, and
# at n=8 phase 2 sweeps the capped direction set.
MAX_DIGESTS = {
    "TP1": "b4d097876ec53b5e0239817487c06362da5622fc36a68921e572613d12693900",
    "BUMP3": "33f9f2d815c669398c013b321253cc34e65f53abe185c16d7c578833a7676bdb",
    "BUMP8": "c4692d32e0af7ad5dddbc54f5b01048ab7d554111afac25735c2991449fccf00",
}

# TP1 with trm_max=3, tc_max=1: the rotation cap is reached inside a
# rotational sweep, with candidates of that sweep still untried.
TIGHT_CAP_DIGEST = "aef8d30a4a17a705551fae42de0d14bc2ab6164885295327a3622c06437d1640"

# BEALE, generic config: at 300 evaluations the budget runs out inside a
# ray sweep (after a rotational sweep stopped at its cap), at 190 inside a
# rotational sweep.
BUDGET_OUT_DIGESTS = {
    300: "1a5827cd06500d011c85d67bb4907334d492ac9084f64b85ef664e1cc2f11d91",
    190: "818a39a287d4a04930117b79894c141e4cef7864d34ff19284cadad44222f6a3",
}

# BEALE, GRADIENT labeling, seed 0, 20 evaluations: the budget runs out
# inside a crossover batch.  Under BEST_NEIGHBOR the crossover midpoints
# are cache hits (phase 1's Moore neighbourhoods hold every edge midpoint),
# so only GRADIENT labeling reaches this path.
CROSSOVER_BUDGET_OUT_DIGEST = "0ee477d8ba75444600179ead1a2ba1dee2fa3bdd6be310df46a1474f589a0a9b"

SA_DIGESTS = {
    "F2": "edaa5aae35098bc59e1da53d5ff3420cc44e6db4aa3c175084dbd26a693ab2f4",
    "F4": "19ecbcfaef987abe62dcdeddd67216dfce74e60a789e147243404bea747498c8",
    "F5": "2d54ce2e301d43bd7b7615d342d22a2f5eab350fefe6b61fae0a8f0e5127d888",
}


def digest(result) -> str:
    return hashlib.sha256(repr(result.without_wallclock()).encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(SGM_DIGESTS))
def test_sgm_default_config(name, seed):
    r = solve(make_objective(name), default_config(name, seed=seed))
    assert digest(r) == SGM_DIGESTS[(name, seed)]


@pytest.mark.parametrize("name", sorted(SGM_GRADIENT_DIGESTS))
def test_sgm_gradient_labeling(name):
    cfg = replace(default_config(name, seed=0), labeling=LabelStrategy.GRADIENT)
    r = solve(make_objective(name), cfg)
    assert digest(r) == SGM_GRADIENT_DIGESTS[name]


def shifted_sphere(n: int) -> Objective:
    shift = np.random.default_rng(20130).uniform(-5.12, 5.12, n)
    lo = np.full(n, -5.12)
    return Objective(name=f"SPHERE{n}", dim=n, domain=BoxDomain(lo, -lo),
                     fn=lambda p: float(np.sum((p - shift) ** 2)))


@pytest.mark.parametrize("n", sorted(SPHERE_DIGESTS))
def test_sgm_shifted_sphere(n):
    r = solve(shifted_sphere(n), SgmConfig(eval_budget=5000, seed=0))
    assert digest(r) == SPHERE_DIGESTS[n]


def bump(n: int) -> Objective:
    peak = np.random.default_rng(20131).uniform(-4.0, 4.0, n)
    lo = np.full(n, -5.12)
    return Objective(name=f"BUMP{n}", dim=n, domain=BoxDomain(lo, -lo),
                     fn=lambda p: -float(np.sum((p - peak) ** 2)))


@pytest.mark.parametrize("name", sorted(MAX_DIGESTS))
def test_sgm_max_sense(name):
    if name == "TP1":
        obj, cfg = make_objective(name), default_config(name, seed=0)
    elif name == "BUMP3":
        obj, cfg = bump(3), SgmConfig()
    else:
        obj, cfg = bump(8), SgmConfig(tf_rounds=0, eval_budget=20_000)
    r = solve(obj, replace(cfg, sense=Sense.MAX))
    assert digest(r) == MAX_DIGESTS[name]


def test_sgm_rotation_cap_mid_sweep():
    cfg = replace(default_config("TP1", seed=0), trm_max=3, tc_max=1)
    assert digest(solve(make_objective("TP1"), cfg)) == TIGHT_CAP_DIGEST


@pytest.mark.parametrize("budget", sorted(BUDGET_OUT_DIGESTS))
def test_sgm_budget_out_in_phase2(budget):
    r = solve(make_objective("BEALE"), SgmConfig(eval_budget=budget))
    assert r.evaluations == budget
    assert digest(r) == BUDGET_OUT_DIGESTS[budget]


def test_sgm_budget_out_in_crossover():
    cfg = replace(default_config("BEALE", seed=0), labeling=LabelStrategy.GRADIENT,
                  eval_budget=20)
    r = solve(make_objective("BEALE"), cfg)
    assert r.evaluations == 20
    assert digest(r) == CROSSOVER_BUDGET_OUT_DIGEST


@pytest.mark.parametrize("name", sorted(RS_DIGESTS))
def test_random_search(name):
    r = random_search(make_objective(name), 2000, RngStream(3, 1))
    assert digest(r) == RS_DIGESTS[name]


def test_random_search_across_blocks():
    r = random_search(make_objective("F1"), 10_000, RngStream(3, 1))
    assert digest(r) == RS_LONG_DIGEST


@pytest.mark.parametrize("name", sorted(SA_DIGESTS))
def test_simulated_annealing(name):
    r = simulated_annealing(make_objective(name), SaConfig(), RngStream(3, 2))
    assert digest(r) == SA_DIGESTS[name]
