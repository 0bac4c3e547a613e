"""Golden digests of estimator output: a refactor of the estimators, the
per-draw record or the harness must leave every estimate and diagnostic bit
as it was.

Each case runs a small verbose table and pins the SHA-256 of its
raw_diagnostics (all estimators), of the raw estimates of the estimators
that need no ridge fit (DIM, HT, HAJEK, CAE, MII), and of report.csv.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from netgate.harness import ExperimentConfig, run

DEMO = yaml.safe_load((Path(__file__).resolve().parent.parent / "configs" / "sbm_demo.yaml").read_text())
FIT_FREE = ("DIM", "HT", "HAJEK", "CAE", "MII")

CASES = {
    # SBM blocks as clusters
    "sbm_demo_blocks": {},
    # Louvain at gamma 60: the interior is empty, so MII and AMII are
    # degenerate on every draw but keep their arm counts
    "louvain_gamma60": {"clustering": {"gamma": 60.0, "seed": 3}},
    # a boundary-trained predictor and proportions near 0 and 1
    "partial_linear_boundary": {
        "proportions": [0.02, 0.97],
        "truth": "gate",
        "model": {"kind": "partial_linear", "alpha": 1.0, "u": "degree", "sigma": 2.0, "v": "normal", "v_seed": 5},
        "predictor": {"max_hop": 2, "training_mask": "boundary", "covariates": ["degree", "clusters"]},
    },
}

# (raw_diagnostics, fit-free raw_estimates, report.csv)
GOLDEN = {
    "sbm_demo_blocks": (
        "6d9feafc936c09b21499eda4bd874a0436b356137eae6129a9696f00a072ca95",
        "e797130c621c0d3d683ffc7ab0d0f86ad8e854c2c6b554c2bc68be73b2405af5",
        "bf5c55d3adc71fae35b7a47593da469907ee005ef3cd4f236cf764adb0e7df51",
    ),
    "louvain_gamma60": (
        "20aeef5f5ca7e9dcbd7a6f102015f34dfd95b28f0dccc6850f5811c23efa77ac",
        "dd03f3b171b43f553b88b6a220b516369da5607fa27660a6757b803d9e4616e3",
        "9fa0cc27a808a4ce59ebb54df8aa1e9c4b267bc804a57b340991819a72c65626",
    ),
    "partial_linear_boundary": (
        "a27c2a8a53384ac17065fb4b81d7bcd2c632f97bf7ec6236cccdf77f0a69f3fb",
        "e9d9b232b294412bdd030492e561820290bcf54db4b90747a93e4199606e4c5d",
        "20513afdeafa3d9035c8b30be825a58ac4a70b5ce6f4e2993bcf57ebae609935",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimator_bits_match_golden(case):
    config = ExperimentConfig.from_dict({**DEMO, **CASES[case], "repetitions": 60, "verbose": True})
    report = run(config)
    got = (
        _sha(json.dumps(report.raw_diagnostics, sort_keys=True)),
        _sha(json.dumps({k: report.raw_estimates[k] for k in FIT_FREE}, sort_keys=True)),
        _sha(report.to_csv()),
    )
    assert got == GOLDEN[case]
