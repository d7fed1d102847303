"""Scalar documents against their doubled 2 x 2 copies.

A scalar measure mu and the 2 x 2 measure mu I (a conjugated_diagonal
density with two equal channels, each mass weight w I) have the same
recurrence, factor and limit, scaled by I, and a doubled entropy ledger.
The scalar document runs through the l = 1 closed-form kernels, its copy
through the block kernels, so agreement to 1e-14 checks one against the
other on each scalar shipped family.
"""

import json

import numpy as np
import pytest

from matszego import limits, outer, specio, sumrule
from matszego import measure as ms
from matszego.polynomials import stieltjes

from conftest import SPECS_DIR

SCALAR = ("free_semicircle", "arcsine", "semicircle_mass")
N_VERIFY = (5, 20, 60)
N_SUMRULE = (5, 10, 20, 40, 80, 100)
TOL = 1e-14


def doubled(doc: dict) -> dict:
    """The 2 x 2 document of mu I for the scalar document of mu."""
    out = json.loads(json.dumps(doc))
    out["dim"] = 2
    out["density"] = {"family": "conjugated_diagonal", "channels": [doc["density"]] * 2}
    for mass in out["masses"]:
        (w,), = mass["weight"]["re"]
        mass["weight"] = {"re": [[w, 0.0], [0.0, w]]}
    return out


def build(doc: dict) -> ms.MatrixMeasure:
    return specio.build_measure(specio.parse_measure_spec(json.dumps(doc)))


@pytest.fixture(scope="module", params=SCALAR)
def pair(request):
    doc = json.loads((SPECS_DIR / f"{request.param}.json").read_text())
    return build(doc), build(doubled(doc))


def scaled_identity(blocks: np.ndarray) -> np.ndarray:
    """The 2 x 2 blocks c I for a stack of 1 x 1 blocks c."""
    return blocks[..., :1] * np.eye(2)


def test_doubled_document_is_the_scalar_measure_times_the_identity(pair):
    scalar, double = pair
    assert scalar.dim == 1 and double.dim == 2
    np.testing.assert_array_equal(double.weight.values, scaled_identity(scalar.weight.values))


def test_jacobi_blocks_are_scalar_multiples_of_the_identity(pair):
    scalar, double = pair
    one, two = stieltjes(scalar, 100).jacobi, stieltjes(double, 100).jacobi
    assert np.abs(two.a - scaled_identity(one.a)).max() <= TOL
    assert np.abs(two.b - scaled_identity(one.b)).max() <= TOL


def test_factor_and_limit_at_zero_agree(pair):
    scalar, double = pair
    g1, g2 = (outer.spectral_factorize(ms.szego_weight(mu)) for mu in pair)
    assert np.abs(g2.value_at_zero() - scaled_identity(g1.value_at_zero())).max() <= TOL
    l1, l2 = (limits.build_pipeline(mu) for mu in pair)
    assert np.abs(l2.value0 - scaled_identity(l1.value0)).max() <= TOL


def test_verify_columns_agree(pair):
    one, two = (limits.asymptotics_report(mu, N_VERIFY) for mu in pair)
    for column in ("pointwise_sup", "origin_gap", "l2_residual", "mass_norm"):
        assert np.abs(getattr(two, column) - getattr(one, column)).max() <= TOL, column
    # log det P_n doubles with the dimension; the rest are norms of c I
    for column, factor in (("eta_min", 1), ("eta_max", 1), ("logdet_abs", 2), ("frame_defect", 1)):
        gap = getattr(two.polar, column) - factor * getattr(one.polar, column)
        assert np.abs(gap).max() <= TOL, column


def test_sum_rule_ledger_doubles(pair):
    one, two = (sumrule.check_sum_rule(mu, N_SUMRULE) for mu in pair)
    assert one.agreement and two.agreement
    for field in ("z_value", "z_estimate", "e0_value", "a0_values", "a0_oscillation",
                  "residuals", "bridge_value", "bridge_estimate", "bridge_values", "bridge_gap"):
        gap = np.asarray(getattr(two, field)) - 2.0 * np.asarray(getattr(one, field))
        assert np.abs(gap).max() <= TOL, field
