"""Golden outputs: SHA-256 digests of ``repr(RunResult.without_wallclock())``
for fixed seeds.  A refactor that claims "same results" must leave every
digest here unchanged; a digest may change only with a deliberate change of
results, recorded in CHANGES.md."""

import hashlib
from dataclasses import replace

import pytest

from sgmopt import (LabelStrategy, RngStream, SaConfig, default_config,
                    make_objective, random_search, simulated_annealing, solve)

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


@pytest.mark.parametrize("name", sorted(RS_DIGESTS))
def test_random_search(name):
    r = random_search(make_objective(name), 2000, RngStream(3, 1))
    assert digest(r) == RS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SA_DIGESTS))
def test_simulated_annealing(name):
    r = simulated_annealing(make_objective(name), SaConfig(), RngStream(3, 2))
    assert digest(r) == SA_DIGESTS[name]
