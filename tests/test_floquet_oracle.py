import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from repdtc import ChainLayout, build_model
from repdtc.floquet_oracle import (
    ORACLE_MODELS,
    RESIDUAL_TOL,
    build_2t_eigenstates,
    build_logical_eigenstate,
    check_quasienergy_spectrum,
    engine_phase_correction,
    predicted_quasienergy,
)
from repdtc.models import ideal_model_params, logical_basis_index


def ideal_program(model, layout, couplings=1.0, **kw):
    params = ideal_model_params(model, layout, couplings=couplings, **kw)
    return build_model(model, layout, params), params


class TestLogicalEigenstates:
    def test_support_and_norm(self):
        layout = ChainLayout(2, 3)
        logical = {logical_basis_index(layout, j) for j in range(4)}
        for ell in range(4):
            state = build_logical_eigenstate(layout, ell)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
            nonzero = set(np.flatnonzero(np.abs(state.amplitudes) > 1e-15))
            assert nonzero == logical

    def test_ell_zero_is_uniform(self):
        layout = ChainLayout(3, 2)
        state = build_logical_eigenstate(layout, 0)
        support = np.abs(state.amplitudes[np.abs(state.amplitudes) > 1e-15])
        assert np.allclose(support, 8**-0.5)

    def test_label_range(self):
        layout = ChainLayout(2, 2)
        with pytest.raises(ValueError):
            build_logical_eigenstate(layout, 4)
        with pytest.raises(ValueError):
            build_logical_eigenstate(layout, -1)

    def test_fourier_phases(self):
        layout = ChainLayout(2, 2)
        state = build_logical_eigenstate(layout, 1)
        amps = [state.amplitudes[logical_basis_index(layout, j)] for j in range(4)]
        for j in range(4):
            assert amps[j] == pytest.approx(0.5 * cmath.exp(1j * j * math.pi / 2))

    def test_completeness(self):
        # sum_ell |e_ell><e_ell| is the identity on the logical subspace.
        for layout in (ChainLayout(2, 3), ChainLayout(3, 2)):
            count = 1 << layout.n_chains
            logical = [logical_basis_index(layout, j) for j in range(count)]
            rows = np.array(
                [
                    build_logical_eigenstate(layout, ell).amplitudes[logical]
                    for ell in range(count)
                ]
            )
            assert np.allclose(rows.T @ rows.conj(), np.eye(count), atol=1e-12)


class TestPredictedQuasienergy:
    def test_formula(self):
        couplings = np.array([[1.0, 0.5], [2.0, 0.25]])
        e0 = -3.75
        for ell in range(4):
            expected = (e0 - ell * math.pi / 2) % (2 * math.pi)
            assert predicted_quasienergy(couplings, 2, ell) == pytest.approx(expected)


class TestEnginePhaseCorrection:
    def test_u4_counts_drive_and_cnot(self):
        layout = ChainLayout(2, 2)
        program, _ = ideal_program("u4", layout, couplings=0.9)
        # The drive acts on one chain, so the x layer holds `sites`
        # rotations; the CNOT layer contributes exp(i*sites*pi/4).
        expected = (-1j) ** 2 * cmath.exp(1j * 2 * math.pi / 4)
        assert engine_phase_correction(program) == pytest.approx(expected)

    def test_single_chain_drive_only(self):
        layout = ChainLayout(1, 3)
        program, _ = ideal_program("2t", layout, couplings=1.2)
        assert engine_phase_correction(program) == pytest.approx((-1j) ** 3)


class TestQuasienergySpectrum:
    @pytest.mark.parametrize(
        "model, layout",
        [
            ("2t", ChainLayout(1, 4)),
            ("u4", ChainLayout(2, 3)),
            ("u8", ChainLayout(3, 2)),
            ("u2n", ChainLayout(3, 2)),
        ],
    )
    def test_ideal_models_pass(self, model, layout):
        couplings = np.linspace(
            0.4, 1.9, layout.n_chains * (layout.sites - 1)
        ).reshape(layout.n_chains, layout.sites - 1)
        program, params = ideal_program(model, layout, couplings=couplings)
        report = check_quasienergy_spectrum(program, params.couplings)
        assert report["passed"]
        assert report["max_residual"] < RESIDUAL_TOL
        assert report["max_phase_error"] < RESIDUAL_TOL
        assert report["spacing_target"] == pytest.approx(
            math.pi / 2 ** (layout.n_chains - 1)
        )
        assert report["max_spacing_error"] < RESIDUAL_TOL
        assert len(report["entries"]) == 2**layout.n_chains

    def test_u3_has_no_decrement_structure(self):
        layout = ChainLayout(3, 2)
        program, params = ideal_program("u3", layout)
        assert "u3" not in ORACLE_MODELS
        with pytest.raises(ValueError):
            check_quasienergy_spectrum(program, params.couplings)

    def test_detuned_drive_fails_cleanly(self):
        layout = ChainLayout(2, 2)
        params = ideal_model_params("u4", layout, couplings=1.0)
        params = replace(params, x_field=np.full(2, 1.125 * math.pi / 2))
        program = build_model("u4", layout, params)
        report = check_quasienergy_spectrum(program, params.couplings)
        assert not report["passed"]
        assert report["max_residual"] > 1e-3


class TestPeriodTwoEigenstates:
    def test_eigenpairs_with_longitudinal_field(self):
        layout = ChainLayout(1, 3)
        z_field = np.array([0.3, -0.7, 1.1])
        couplings = np.array([[1.4, 0.6]])
        program, params = ideal_program(
            "2t", layout, couplings=couplings, z_field=z_field
        )
        plus, minus = build_2t_eigenstates(layout, z_field)
        expected_scale = (-1j) ** 3 * cmath.exp(1j * float(couplings.sum()))
        for state, sign in ((plus, 1.0), (minus, -1.0)):
            evolved = state.copy()
            program.circuit.apply_to(evolved)
            lam = state.inner(evolved)
            residual = float(
                np.linalg.norm(evolved.amplitudes - lam * state.amplitudes)
            )
            assert residual < RESIDUAL_TOL
            assert abs(lam - sign * expected_scale) < RESIDUAL_TOL

    def test_eigenvalues_ignore_field_strength(self):
        layout = ChainLayout(1, 2)
        couplings = np.array([[0.8]])
        lams = []
        for z in (np.zeros(2), np.array([2.0, -0.5])):
            program, _ = ideal_program("2t", layout, couplings=couplings, z_field=z)
            plus, _ = build_2t_eigenstates(layout, z)
            evolved = plus.copy()
            program.circuit.apply_to(evolved)
            lams.append(plus.inner(evolved))
        assert abs(lams[0] - lams[1]) < RESIDUAL_TOL

    def test_single_chain_only(self):
        with pytest.raises(ValueError):
            build_2t_eigenstates(ChainLayout(2, 2))
