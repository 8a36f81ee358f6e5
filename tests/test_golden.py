"""Golden outputs: SHA-256 digests of ``repr(RunResult.without_wallclock())``
for fixed seeds.  A refactor that claims "same results" must leave every
digest here unchanged; a digest may change only with a deliberate change of
results, recorded in CHANGES.md."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from sgmopt import (BoxDomain, LabelStrategy, Objective, ObjectiveError, RngStream,
                    SaConfig, Sense, SgmConfig, default_config, make_objective,
                    random_search, simulated_annealing, solve)
from sgmopt.core import vectorises
from sgmopt.testbed import VALID_NAMES

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
    "F3": "f337c5cb7e390dedb3fc0ca6c5fafa40241e9da314dd7694379f6ef00acda85a",
    "F4": "281205a6a56bdb79361ddbb66ed05ea6e67120c6a04cc63bd7163076c688d317",
    "F5": "e85005ab229ceaf693ceb9b59e639d4c68996bc00c04302c05c275fe1d013acb",
    "TP1": "e34192000b8c9f096fe41c225b0775bf6613c6f8b21658a7f0ef08bd1a002eda",
}

# Shifted spheres, seed 0, 5,000 evaluations: n=6 labels with the full
# 728-offset Moore set, n=12 with the capped set plus the center hint, and
# n=16 also descends into the one child on the best point's side of each
# split plane instead of enumerating children.
SPHERE_DIGESTS = {
    6: "6ab9d931c378eb67787f6edef88799117baf7b16a272196ec73905e63744c86c",
    12: "23d97e9599472443f62cb24954e00445988abebd080f4e8ce478d2232f6a9fd8",
    16: "8451cc06243c2362942b2d450c10f3faaf24d1bd65d048d284110699b3878b5f",
}

# F5 with 8,101 draws (an experiment trial's budget) from RngStream(5, 0):
# its best value is 1.021465935143503 with F5's sixth powers from libm pow,
# and one ulp lower from numpy's AVX-512 ``** 6``.
RS_F5_DIGEST = "d2d6e76c5a47acb6c72b073295c14abcb58d2f30450381c3db1bda6200ef0dbc"

# 10,000 draws fill 20 of random search's 512-row (RS_BLOCK) blocks, so
# they cross 19 block boundaries.
RS_LONG_DIGEST = "288d581b24ad9ad57b79169a5d14c40c978656de1015267d86f932631902c337"

# Sense.MAX, seed 0: TP1's maxima lie on the box boundary, so ray sweeps
# run into the box; the negated spheres ("bumps") have interior maxima, and
# at n=8 phase 2 sweeps the capped direction set.
MAX_DIGESTS = {
    "TP1": "b4d097876ec53b5e0239817487c06362da5622fc36a68921e572613d12693900",
    "BUMP3": "33f9f2d815c669398c013b321253cc34e65f53abe185c16d7c578833a7676bdb",
    "BUMP8": "c4692d32e0af7ad5dddbc54f5b01048ab7d554111afac25735c2991449fccf00",
}

# Sense.MAX on paths the digests above leave out.  GRADIENT labeling
# (default_config, seed 0) reads the gradient's sign, and F4
# (default_config) the sign of each epoch's noise offset.  batched_bump(3)
# with tf_rounds=0 runs out of budget inside a walk: a 60-row walk on the
# row path at 150 evaluations, a 76-row and an 80-row walk on the batch
# path at 400 and 2,000.
MAX_GRADIENT_DIGESTS = {
    "BEALE": "5f461f175a712e89aa96d8987ab0032a7c8369656f635211d66c8b2ec5d26484",
    "F1": "5b10070ea04f5f3c8dd851aa4dd077c28dd2bedcc398273956be6306a9744c9a",
    "F2": "02f9d26923e3513b1703b623d096d6ac2bb2a08c5bfa39ea23e5a9bc7979be33",
}
MAX_F4_DIGESTS = {
    0: "2f6fe837019c4d7bf7131d5510ed1dd5deb30e14f55ec906e5dff801e1874814",
    1: "11bbea83ded3d91e1d4ef262d703a1a33a40170b021b68b381f0ea4300d3bdfa",
}
MAX_BUDGET_OUT_DIGESTS = {
    150: "88134929ffdf3557856d90717c28f66ac26d30f968e4095a11b2a22e5ed9b46d",
    400: "d9712029bf570e303d65103b2f75b84285808bce6f803b6f9ea24b99ef285bc1",
    2000: "f65499c9a0feae548b8b5518016b752d13c9a3792d49ff3400f24fdf1259710c",
}

# probe() under each sense, and the ObjectiveError.partial of an objective
# that raises on its 400th call under Sense.MAX.
PROBE_DIGESTS = {
    Sense.MIN: "dbae0cbcffdce0573e70650f6b8e53edec77a3cc870b798b0c25525d89783d5c",
    Sense.MAX: "d75f0af51caddbdaa0a10eecb957d4d94f592c0b454475c81b72dd9ebab5923b",
}
MAX_PARTIAL_DIGEST = "49575692a235accbd3de2d0d932be6dcdaa691277f557ce0fdace364ec6fb322"

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
CROSSOVER_BUDGET_OUT_DIGEST = "5f339fc539cdeedb7f4164c0a7f7ef21a957418f7c465cbe71b1a70f543c20b9"

# Seed 1 with tf_rounds=0, so phase 2 starts from a coarse vertex: F1's
# 80-row and F4's 620-row walks then stop at an improvement part way along
# (90 of F1's 103 walks of 64 rows or more, 17 of F4's 43).  At 700
# evaluations F1's budget runs out inside an 80-row ray walk.
LONG_WALK_DIGESTS = {
    ("F1", 20_000): "fa1d900fd2afdf453b8a081a5b3470ed61fcc54ae31c198127e15ae99bae9542",
    ("F4", 60_000): "6a5b5efd762b1fbd8be33cb33df0e4d201f4c7e7972ac6564e236f4e4347c763",
    ("F1", 700): "15257f534683d3d90251f4be17a394d5a6fe2eaca62e5d3187a2a8cbe63da32b",
}

# Budget stops inside phase 1.  A 6-D shifted sphere (seed 0) labels round
# 1 with the full 728-offset Moore set; its 5th round-1 vertex ends at
# 1,044 evaluations, so budget 1,044 stops at a vertex boundary and 1,045
# one row into the next vertex.  F3 (default_config, seed 0) ends its
# rounds at 243, 3,125 and 10,658 evaluations, and F4 (seed 1) at 1,863,
# 4,717 and 8,562, with the capped corner plan and the center-hint row.
# batched_bump(3) under Sense.MAX ends round 2 at 407.  Each case runs
# through its batch form and row by row, with one digest for both.
PHASE1_STOP_DIGESTS = {
    ("SPHERE6", 1044): "5d73a17c78ac214ee1260d367ec98f9ce399672ff4269bc332b70bcb3a06adb7",
    ("SPHERE6", 1045): "576921ca3be702a0c7114f307b2425fd1e4fc3d129f1e770ce1c805e2165f304",
    ("F3", 500): "c7ffda0834f795eadd4418835a3399f97276f957afd118589711a0d75f341e01",
    ("F3", 3000): "60434abc998b3d5e9ca9099f085e16525f156f4461f9e27b8b67f483aaee992b",
    ("F3", 9000): "669e8e6284ea5a8609c263ebaaf9511bc238537f493f668bf81afc5ed09e77e2",
    ("F4", 3000): "14f47fc66d4905ce018928803048876194b3f537ab778fc76e2bfa8ad696f5ac",
    ("BUMP3", 300): "7fce4cc8964f8a23481d816c360ed3ab01c493b5ddaf7ca912fbcf6bb77a2b5d",
}

SA_DIGESTS = {
    "BEALE": "af32dd952739ca529666ed9edfdade2305a8d6d508cf982589ebf775c0a69fd0",
    "F1": "9d6c84423bc60e98f2fcb83999b7efdc790b8dcac64869a11721b7d792883032",
    "F2": "eedfc61d29d9db9af0fb7b6859ecf230b97c549fa471b6041b256e8bce6a85da",
    "F3": "fafbaf99ed9064b854c8c7c800b9d6815316b3063ee65a9591fe288ebf111444",
    "F4": "b0c2e506b6111e6bf33e7136b6614dd6e2d64d80fc1588c06be56a46fa1e1004",
    "F5": "f2ecb113d64f2b2672bd6ff86eec7d7b1a55094d8fa6c83c0c5dc932298dac2e",
    "TP1": "ad4e1c21814bd2f6e895571dfacff538ef65c9ee732da6d548f62f308f51fdd3",
}

# A faster schedule than the default: cooling 0.8 from t0 = 10 reaches
# t_min = 1e-5 after 62 stages of 7 steps, so 1 + 62 * 7 = 435 evaluations.
SA_FAST_CONFIG = SaConfig(cooling=0.8, steps_per_temp=7, proposal_scale=0.3)
SA_FAST_DIGESTS = {
    "F2": "13368b1d9be0e6e5b7f9f2857a6449cf886a589dbcdcc33161369c87232db86f",
    "F4": "661cd6387086bbb13a437387e8b98479138467f6f24425f1484b8feb4c86a9c4",
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


def batched_bump(n: int) -> Objective:
    """``bump(n)`` with a registered batch form, so phase 2's 80-row walks
    (n=3) are evaluated through it."""
    peak = np.random.default_rng(20131).uniform(-4.0, 4.0, n)

    def rows(P):
        return -((P - peak) ** 2).sum(axis=1)

    def fn(p):
        return float(rows(p[None])[0])

    vectorises(fn)(rows)
    lo = np.full(n, -5.12)
    return Objective(name=f"BUMP{n}", dim=n, domain=BoxDomain(lo, -lo), fn=fn)


def test_sgm_max_sense_through_batch_form():
    r = solve(batched_bump(3), SgmConfig(sense=Sense.MAX))
    assert digest(r) == MAX_DIGESTS["BUMP3"]


@pytest.mark.parametrize("name", sorted(MAX_GRADIENT_DIGESTS))
def test_sgm_max_sense_gradient_labeling(name):
    cfg = replace(default_config(name, seed=0), labeling=LabelStrategy.GRADIENT,
                  sense=Sense.MAX)
    assert digest(solve(make_objective(name), cfg)) == MAX_GRADIENT_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(MAX_F4_DIGESTS))
def test_sgm_max_sense_stochastic(seed):
    cfg = replace(default_config("F4", seed=seed), sense=Sense.MAX)
    assert digest(solve(make_objective("F4"), cfg)) == MAX_F4_DIGESTS[seed]


@pytest.mark.parametrize("budget", sorted(MAX_BUDGET_OUT_DIGESTS))
def test_sgm_max_sense_budget_out_in_walk(budget):
    cfg = SgmConfig(sense=Sense.MAX, tf_rounds=0, eval_budget=budget)
    r = solve(batched_bump(3), cfg)
    assert r.evaluations == budget
    assert digest(r) == MAX_BUDGET_OUT_DIGESTS[budget]


def probe() -> Objective:
    """NaN where both coordinates are negative, -0.0 on the band
    0.5 <= x_2 <= 1, and a negated bowl below -1 elsewhere, so that the
    maximum is -0.0; with a batch form."""
    def rows(P):
        bowl = -1.0 - ((P - 0.3) ** 2).sum(axis=1)
        out = np.where((P[:, 1] >= 0.5) & (P[:, 1] <= 1.0), -0.0, bowl)
        return np.where((P < 0.0).all(axis=1), np.nan, out)

    def fn(p):
        return float(rows(p[None])[0])

    vectorises(fn)(rows)
    return Objective(name="PROBE", dim=2, domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)),
                     fn=fn)


@pytest.mark.parametrize("sense", list(Sense), ids=lambda s: s.value)
def test_sgm_probe(sense):
    r = solve(probe(), SgmConfig(sense=sense))
    if sense is Sense.MAX:
        assert r.best_value == 0.0 and math.copysign(1.0, r.best_value) == -1.0
    assert digest(r) == PROBE_DIGESTS[sense]


def test_sgm_max_sense_partial():
    calls = []

    def fn(x):
        if len(calls) == 399:
            raise ZeroDivisionError("call 400")
        calls.append(x)
        return -float(np.sum((x - 0.3) ** 2))
    obj = Objective(name="RAISES400", dim=2,
                    domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)), fn=fn)
    with pytest.raises(ObjectiveError) as info:
        solve(obj, SgmConfig(sense=Sense.MAX))
    assert info.value.partial.evaluations == 400
    assert digest(info.value.partial) == MAX_PARTIAL_DIGEST


@pytest.mark.parametrize("name,budget", sorted(LONG_WALK_DIGESTS))
def test_sgm_long_walks_stop_early(name, budget):
    cfg = replace(default_config(name, seed=1), tf_rounds=0, eval_budget=budget)
    r = solve(make_objective(name), cfg)
    assert r.evaluations <= budget
    assert digest(r) == LONG_WALK_DIGESTS[(name, budget)]


def row_by_row(obj: Objective) -> Objective:
    """``obj`` with its evaluated functions wrapped, so no batch form is
    registered for them."""
    fn, nf = obj.fn, obj.noise_free_fn
    if nf is None:
        return replace(obj, fn=lambda *a: fn(*a))
    return replace(obj, fn=lambda *a: fn(*a), noise_free_fn=lambda p: nf(p))


@pytest.mark.parametrize("name", VALID_NAMES)
def test_batch_forms_do_not_change_results(name):
    obj, cfg = make_objective(name), default_config(name)
    got = solve(obj, cfg).without_wallclock()
    assert solve(row_by_row(obj), cfg).without_wallclock() == got


def batched_sphere(n: int) -> Objective:
    """``shifted_sphere(n)`` evaluated through a registered batch form."""
    shift = np.random.default_rng(20130).uniform(-5.12, 5.12, n)

    def rows(P):
        return ((P - shift) ** 2).sum(axis=1)

    def fn(p):
        return float(rows(p[None])[0])

    vectorises(fn)(rows)
    lo = np.full(n, -5.12)
    return Objective(name=f"SPHERE{n}", dim=n, domain=BoxDomain(lo, -lo), fn=fn)


def phase1_stop_case(name, budget):
    if name == "SPHERE6":
        return batched_sphere(6), SgmConfig(eval_budget=budget, seed=0)
    if name == "BUMP3":
        return batched_bump(3), SgmConfig(sense=Sense.MAX, eval_budget=budget)
    seed = 1 if name == "F4" else 0
    return make_objective(name), replace(default_config(name, seed=seed), eval_budget=budget)


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "rows"])
@pytest.mark.parametrize("name,budget", sorted(PHASE1_STOP_DIGESTS))
def test_sgm_budget_out_in_phase1(name, budget, batched):
    obj, cfg = phase1_stop_case(name, budget)
    if not batched:
        obj = row_by_row(obj)
    r = solve(obj, cfg)
    assert r.evaluations == budget
    assert digest(r) == PHASE1_STOP_DIGESTS[(name, budget)]


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


def test_random_search_f5_libm_values():
    r = random_search(make_objective("F5"), 8101, RngStream(5, 0))
    assert digest(r) == RS_F5_DIGEST


def test_random_search_across_blocks():
    r = random_search(make_objective("F1"), 10_000, RngStream(3, 1))
    assert digest(r) == RS_LONG_DIGEST


@pytest.mark.parametrize("name", sorted(SA_DIGESTS))
def test_simulated_annealing(name):
    r = simulated_annealing(make_objective(name), SaConfig(), RngStream(3, 2))
    assert digest(r) == SA_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SA_FAST_DIGESTS))
def test_simulated_annealing_fast_schedule(name):
    r = simulated_annealing(make_objective(name), SA_FAST_CONFIG, RngStream(3, 2))
    assert (r.evaluations, r.generations) == (435, 62)
    assert digest(r) == SA_FAST_DIGESTS[name]
