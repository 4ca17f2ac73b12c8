"""Golden gate: SHA-256 of the CLI's output bytes for fixed invocations.

Every scenario x method pair runs at reduced --steps (spring-chain also
at a reduced particle count, to keep this in the quick suite). Each
source kind has ``field`` at the default 1000 intervals, at the fewest
it allows (1 for the open segment, 3 for the closed loop) and at 4999
(the top of the benchmark's field-points range), plus one
``field-grid``. A refactor must leave every hash
unchanged; a deliberate output change re-baselines them in a change of
its own.
"""

import hashlib

import pytest

from mechfield.cli import EXIT_OK, main

SIMULATE_ARGS = {
    "sho": ("--steps", "300"),
    "ddho": ("--beta", "0.25", "--steps", "300"),
    "satellite": ("--steps", "300"),
    "pendulum": ("--theta0", "2.5", "--steps", "300"),
    "three-body": ("--steps", "200"),
    "spring-chain": ("--particles", "8", "--steps", "100"),
}

SIMULATE_GOLDEN = {
    "sho/euler": "455a348c9475dbc102e710d573b710fc8a86fc6c34d9ec5c2b18e07932959c82",
    "sho/euler-cromer": "f11ecb4d437df54443f81cab7b598ca78d54fbb576a1855576a83cbf3c36d901",
    "sho/rk4": "e63a5df8e651e1eebf45f491e73c3c22be16dd37d46dd941b754f8c4f6f4e419",
    "ddho/euler": "12c09ce153fbdf64d987efed0007928c1ae9973cede493a59d9263fc010c0a89",
    "ddho/euler-cromer": "67effde0017a887407e8f32790a22b97edcf9c8a1a9ef4ba7a2ad913bfef49f3",
    "ddho/rk4": "d5cb28d64c097a691eb39fcb9e0aadb76532fc158d4d8e172d156196270dd58c",
    "satellite/euler": "1f39c0479638d9cb08b80ec754bbf2eb64f166b4d96e51410d525fe3fd2f9d2d",
    "satellite/euler-cromer": "070c4efbcccfa9bb5a65f2152b3631eb23ea99640dd2b4cf2229f6edb262ceed",
    "satellite/rk4": "bce6f43e82d4b0f724c21706cad3dac5dbe7ee5ce06ec528a34b9f6b714ebfed",
    "pendulum/euler": "294c0e3736d34848ef759eb2bede63b6f9e0e607ea85ec3d708fc67ebdf563f1",
    "pendulum/euler-cromer": "c70a5715c05de111cb6bcdcefd7ea3a6db540c4428a360c8bdc5a016e0017bce",
    "pendulum/rk4": "fc0cb2c17f546544c23de1e136f7129dfe542e00a718d92390530014cb97a1d3",
    "three-body/euler": "b51a2a6e9c2b02b1cec890c4a55093ceca38e4209c411d71e9a9dac795618d0f",
    "three-body/euler-cromer": "166a7192bc3ff24c10cd02bf5441b978f8de9cffadc4891a60bcc2054ffe655c",
    "three-body/rk4": "90a602dd5f23eb4fbe3e5308d7b974a6df51eac7611bc21589126103c1ef05ae",
    "spring-chain/euler": "477d090aa27d0038c144e0e646fe282a078d0ffdbf1a142d9a6abd2b7ba3ece5",
    "spring-chain/euler-cromer": "78dd502adba48e09f292a3fcf72201cd7881aa67bdf8903cb78b35e8243c2665",
    "spring-chain/rk4": "04f1aa0820a0ad96942f26cab777ccd940125bca5c97d2c9cefeaf44d9cf1bbe",
}

FIELD_ARGS = {
    "field-b-loop": ("field", "b-loop", "--radius", "0.7", "--at", "0.3,0.2,0.5"),
    "field-e-line": ("field", "e-line", "--length", "2", "--at", "0.5,0.1,-0.2"),
    "field-b-loop-intervals-3": ("field", "b-loop", "--radius", "0.7", "--intervals", "3", "--at", "0.3,0.2,0.5"),
    "field-b-loop-intervals-4999": ("field", "b-loop", "--radius", "0.7", "--intervals", "4999",
                                    "--at", "0.3,0.2,0.5"),
    "field-e-line-intervals-1": ("field", "e-line", "--length", "2", "--intervals", "1", "--at", "0.5,0.1,-0.2"),
    "field-e-line-intervals-4999": ("field", "e-line", "--length", "2", "--intervals", "4999",
                                    "--at", "0.5,0.1,-0.2"),
    "field-grid-b-loop": ("field-grid", "b-loop", "--intervals", "200", "--x-max", "0.5",
                          "--x-count", "3", "--z-min", "-1", "--z-max", "1", "--z-count", "4"),
    "field-grid-e-line": ("field-grid", "e-line", "--intervals", "300", "--x-min", "0.2",
                          "--x-max", "1", "--x-count", "4", "--y-max", "0.4", "--y-count", "2"),
}

FIELD_GOLDEN = {
    "field-b-loop": "8bf5b159ea604c45497703166a5aa997bc0e621872a2184e8c92ea35760c11f9",
    "field-e-line": "5ca7ca04dc4bcfe0edd7ba7140a96455e60316269ef277d04ad0c71e2751cccc",
    "field-b-loop-intervals-3": "9416f39d16ac70f06ff20221dcb5fab675967a2360d1bf257b4d18db29dc68a7",
    "field-b-loop-intervals-4999": "a9a3105a74466b412ecbb8d7bfe365d048e07e0a632642fae269696c0216f3e9",
    "field-e-line-intervals-1": "8b230681498cdf194b71c72ac7b2f0d312ec088c52a4286ab8308210a6a160c0",
    "field-e-line-intervals-4999": "736c6a3231ac72c040a999dd010c4064c54fa34a46edd4c64470cff60228ead5",
    "field-grid-b-loop": "dd56397260f948e3b2b671edebc637de05beb61023eb160835ef63475bba3d80",
    "field-grid-e-line": "64bf40f797834bfdbf1789c55725f1999e69f242d1b6b8dc3b1ddbfeff051760",
}


def digest(capsys, argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(SIMULATE_GOLDEN))
def test_simulate_golden(capsys, case):
    scenario, method = case.split("/")
    argv = ("simulate", scenario, "--method", method, *SIMULATE_ARGS[scenario])
    assert digest(capsys, argv) == SIMULATE_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FIELD_GOLDEN))
def test_field_golden(capsys, case):
    assert digest(capsys, FIELD_ARGS[case]) == FIELD_GOLDEN[case]


def test_golden_covers_every_scenario_and_method():
    from mechfield.cli import METHODS
    from mechfield.scenarios import SCENARIOS

    assert set(SIMULATE_GOLDEN) == {f"{s}/{m}" for s in SCENARIOS for m in METHODS}
    assert set(FIELD_GOLDEN) == set(FIELD_ARGS)
