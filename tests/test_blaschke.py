"""Subspace frames, unitary-valued disk products, residue extraction."""

import numpy as np
import pytest

from matszego.errors import (
    DegenerateFrame,
    DuplicatePole,
    NotSimplePole,
    PoleAtReflection,
    ValidationError,
)
from matszego.linalg import operator_norm
from matszego.blaschke import (
    ElementaryFactor,
    complement_frame,
    construct_product,
    kernel_frame,
    orthonormal_frame,
    principal_angles,
    residue_kernel,
)

from conftest import haar_frames

E1 = np.array([[1.0], [0.0]], dtype=complex)
E2 = np.array([[0.0], [1.0]], dtype=complex)


def circle(count=128):
    return np.exp(2j * np.pi * np.arange(count) / count)


def unitarity_defect(vals: np.ndarray) -> float:
    eye = np.eye(vals.shape[-1])
    return float(np.max(operator_norm(vals.conj().swapaxes(-1, -2) @ vals - eye)))


class TestFrames:
    def test_orthonormal_frame_preserves_span(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q = orthonormal_frame(v)
        assert q.shape == (4, 2)
        assert float(operator_norm(q.conj().T @ q - np.eye(2))) < 1e-12
        assert float(np.max(principal_angles(q, v))) < 1e-10

    def test_orthonormal_frame_rejects_dependent(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(DegenerateFrame):
            orthonormal_frame(v)
        with pytest.raises(DegenerateFrame):
            orthonormal_frame(np.zeros((3, 1)))

    def test_complement_frame_completes_basis(self):
        rng = np.random.default_rng(7)
        q = orthonormal_frame(rng.standard_normal((4, 2)))
        c = complement_frame(q)
        full = np.hstack([c, q])
        assert float(operator_norm(full.conj().T @ full - np.eye(4))) < 1e-12

    def test_complement_of_empty_is_identity(self):
        c = complement_frame(np.zeros((3, 0)))
        assert np.allclose(c, np.eye(3))

    def test_kernel_frame_rank_one(self):
        w = np.array([[0.2, 0.0], [0.0, 0.0]])
        k = kernel_frame(w)
        assert k.shape == (2, 1)
        assert float(np.max(principal_angles(k, E2))) < 1e-12

    def test_kernel_frame_full_rank_is_empty(self):
        assert kernel_frame(np.eye(3)).shape == (3, 0)

    def test_kernel_frame_zero_matrix_is_identity(self):
        assert np.allclose(kernel_frame(np.zeros((2, 2))), np.eye(2))

    def test_principal_angles_extremes(self):
        assert np.max(principal_angles(E1, E1)) == 0.0
        assert np.max(principal_angles(E1, E2)) == pytest.approx(np.pi / 2)
        # dimension mismatch between empty and nonempty spans is maximal
        assert np.max(principal_angles(np.zeros((2, 0)), E1)) == pytest.approx(np.pi / 2)


class TestElementaryFactor:
    def test_scalar_blaschke_properties(self):
        f = ElementaryFactor(z=0.5j, rank=1, unitary=np.eye(1, dtype=complex))
        assert abs(complex(f.scalar(0.5j))) < 1e-15
        assert complex(f.scalar(0.0)) == pytest.approx(0.5)
        on_circle = np.abs(f.scalar(circle()))
        assert np.max(np.abs(on_circle - 1.0)) < 1e-12

    def test_scalar_rejects_reflected_point(self):
        f = ElementaryFactor(z=0.5, rank=1, unitary=np.eye(1, dtype=complex))
        with pytest.raises(PoleAtReflection):
            f.scalar(2.0)

    def test_block_structure(self):
        u = np.eye(2, dtype=complex)
        f = ElementaryFactor(z=0.4, rank=1, unitary=u)
        v = f.eval(0.1)[0]  # factor eval is always batched
        b = complex(f.scalar(0.1))
        assert v[0, 0] == pytest.approx(b)
        assert v[1, 1] == pytest.approx(1.0)
        assert abs(v[0, 1]) + abs(v[1, 0]) < 1e-15

    def test_inverse_is_pointwise_inverse(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        f = ElementaryFactor(z=0.3 - 0.2j, rank=2, unitary=q)
        zs = np.array([0.1, -0.4j, 0.2 + 0.6j])
        prod = f.eval(zs) @ f.eval_inverse(zs)
        assert float(np.max(operator_norm(prod - np.eye(3)))) < 1e-12


class TestProductConstruction:
    def test_single_state_pins_range(self):
        prod = construct_product([(0.5, E1)], dim=2)
        val = prod.eval(0.5)
        # rank-one value with range exactly span(e1)
        s = np.linalg.svd(val, compute_uv=False)
        assert s[1] < 1e-12
        u = np.linalg.svd(val)[0][:, :1]
        assert float(np.max(principal_angles(u, E1))) < 1e-10

    def test_single_state_closed_form(self):
        # prescribing range span(e1) at z = 0.5 leaves channel one free
        # and puts the scalar factor in channel two
        prod = construct_product([(0.5, E1)], dim=2)
        b = ElementaryFactor(z=0.5, rank=1, unitary=np.eye(1, dtype=complex))
        for z in (0.0, 0.3j, -0.7):
            val = prod.eval(z)
            assert val[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert val[1, 1] == pytest.approx(complex(b.scalar(z)), abs=1e-12)
            assert abs(val[0, 1]) + abs(val[1, 0]) < 1e-12

    def test_boundary_unitarity(self):
        rng = np.random.default_rng(21)
        states = [
            (0.5, E1),
            (-0.3 + 0.2j, E2),
            (0.1 + 0.6j, np.zeros((2, 0))),
        ]
        prod = construct_product(states, dim=2)
        assert unitarity_defect(prod.eval(circle())) < 1e-12

    def test_det_at_zero(self):
        states = [(0.5, E1), (0.25, np.zeros((2, 0)))]
        prod = construct_product(states, dim=2)
        # ranks: 1 for the pinned state, 2 for the empty target
        expected = 0.5**1 * 0.25**2
        assert prod.det_at_zero() == pytest.approx(expected)
        assert abs(np.linalg.det(prod.value_at_zero())) == pytest.approx(
            expected, abs=1e-12
        )

    def test_full_dimensional_target_contributes_nothing(self):
        prod = construct_product([(0.5, np.eye(2, dtype=complex))], dim=2)
        assert len(prod.factors) == 0
        assert np.allclose(prod.eval(0.3), np.eye(2))

    def test_inverse_cancels(self):
        rng = np.random.default_rng(23)
        v = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        states = [(0.4, v), (-0.2 + 0.5j, rng.standard_normal((3, 2)))]
        prod = construct_product(states, dim=3)
        zs = np.array([0.05, 0.3 - 0.1j, -0.8j])
        vals = prod.eval(zs) @ prod.eval_inverse(zs)
        assert float(np.max(operator_norm(vals - np.eye(3)))) < 1e-10

    def test_frame_basis_invariance(self):
        rng = np.random.default_rng(27)
        v1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        v2 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        states = [(0.45, v1), (-0.3j, v2)]
        base = construct_product(states, dim=3)
        scrambled = construct_product(haar_frames(states, np.random.default_rng(99)), dim=3)
        zs = np.array([0.0, 0.2 + 0.1j, -0.5, 0.7j])
        gap = float(np.max(operator_norm(base.eval(zs) - scrambled.eval(zs))))
        assert gap < 1e-10

    def test_later_states_keep_earlier_ranges(self):
        rng = np.random.default_rng(31)
        states = [
            (0.5, rng.standard_normal((3, 1))),
            (0.3 + 0.3j, rng.standard_normal((3, 2))),
            (-0.6, rng.standard_normal((3, 1))),
        ]
        prod = construct_product(states, dim=3)
        for z_k, v in states:
            target = orthonormal_frame(np.asarray(v, dtype=complex))
            val = prod.eval(complex(z_k))
            s = np.linalg.svd(val, compute_uv=False)
            d = target.shape[1]
            assert s[d] < 1e-10  # rank drops to d
            u = np.linalg.svd(val)[0][:, :d]
            assert float(np.max(principal_angles(u, target))) < 1e-8

    def test_duplicate_pole_rejected(self):
        with pytest.raises(DuplicatePole):
            construct_product([(0.5, E1), (0.5, E2)], dim=2)

    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValidationError):
            construct_product([(1.2, E1)], dim=2)
        with pytest.raises(ValidationError):
            construct_product([(0.0, E1)], dim=2)


class TestResidues:
    def test_scalar_residue_closed_form(self):
        # inverse of b(z) = (0.5 - z)/(1 - 0.5 z) has residue -0.75 at 0.5
        prod = construct_product([(0.5, np.zeros((1, 0)))], dim=1)
        residue, frame = residue_kernel(prod.eval_inverse, 0.5)
        assert complex(residue[0, 0]) == pytest.approx(-0.75, abs=1e-10)
        assert frame.shape == (1, 0)

    def test_product_residue_kernel_matches_range(self):
        prod = construct_product([(0.5, E1)], dim=2)
        residue, frame = residue_kernel(prod.eval_inverse, 0.5)
        # the scalar factor sits in channel two; channel one is regular
        assert abs(residue[0, 0]) < 1e-10
        assert complex(residue[1, 1]) == pytest.approx(-0.75, abs=1e-10)
        assert frame.shape == (2, 1)
        assert float(np.max(principal_angles(frame, E1))) < 1e-8

    def test_multi_pole_residue(self):
        rng = np.random.default_rng(37)
        states = [(0.5, E1), (-0.4, rng.standard_normal((2, 1)))]
        prod = construct_product(states, dim=2)
        residue, frame = residue_kernel(
            prod.eval_inverse, 0.5, other_poles=[-0.4]
        )
        range_at_pole = np.linalg.svd(prod.eval(0.5))[0][:, :1]
        assert frame.shape == (2, 1)
        assert float(np.max(principal_angles(frame, range_at_pole))) < 1e-8

    def test_double_pole_detected(self):
        def double(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return ((z - 0.5) ** -2)[:, None, None] * np.eye(1)

        with pytest.raises(NotSimplePole):
            residue_kernel(double, 0.5)

    def test_regular_point_gives_identity_frame(self):
        prod = construct_product([(0.5, E1)], dim=2)

        def shifted(z):
            return prod.eval_inverse(z)  # regular at -0.5

        residue, frame = residue_kernel(shifted, -0.5)
        assert float(operator_norm(residue)) < 1e-10
        assert np.allclose(frame, np.eye(2))

    def test_pole_on_boundary_rejected(self):
        prod = construct_product([(0.5, E1)], dim=2)
        with pytest.raises(ValidationError):
            residue_kernel(prod.eval_inverse, 1.0)
