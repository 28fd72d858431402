"""Exact eigenstate checks on the logical subspace.

Within the logical subspace spanned by the 2**n all-equal product states
|j-bar>, one driving period of an ideal decrement-type model acts as a
diagonal stabilizer phase times the cyclic shift j -> j-1.  The Fourier
vectors over that shift are therefore exact Floquet eigenstates with
equally spaced quasienergies: pick ell, then

    |e_ell> = 2**(-n/2) * sum_j exp(+i*j*pi*ell/2**(n-1)) |j-bar>

has quasienergy (E0 - ell*pi/2**(n-1)) mod 2pi with E0 = -sum(J).

The engine applies only non-identity Pauli rotations, so its period
operator differs from the gate-level one by a known global phase; the
checks below compute that phase from the program and remove it before
comparing eigenphases.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .models import MODEL_SPECS, ChainLayout, FloquetProgram, logical_basis_index
from .statevector import StateVector

ORACLE_MODELS = tuple(name for name, spec in MODEL_SPECS.items() if spec.oracle)

RESIDUAL_TOL = 1e-9


def build_logical_eigenstate(layout: ChainLayout, ell: int) -> StateVector:
    """Fourier eigenstate |e_ell> over the logical product states."""
    n = layout.n_chains
    count = 1 << n
    if not 0 <= ell < count:
        raise ValueError(f"eigenstate label {ell} out of range for {n} chains")
    state = StateVector(layout.n_qubits)
    state.amplitudes[:] = 0.0
    norm = count**-0.5
    step = math.pi * ell / 2 ** (n - 1)
    for j in range(count):
        index = logical_basis_index(layout, j)
        state.amplitudes[index] = norm * cmath.exp(1j * j * step)
    return state


def predicted_quasienergy(
    couplings: np.ndarray, n_chains: int, ell: int
) -> float:
    """(E0 - ell*pi/2**(n-1)) mod 2pi with E0 = -sum of all couplings."""
    e0 = -float(np.sum(couplings))
    return (e0 - ell * math.pi / 2 ** (n_chains - 1)) % (2 * math.pi)


def engine_phase_correction(program: FloquetProgram) -> complex:
    """Global phase by which the applied period differs from the gate one.

    The drive layer applies exp(-i*(pi/2)*X) per qubit, i.e. (-i)**N
    times the logical X; CNOT-type layers omit the identity term of
    their exponent.  Valid for ideal drive angles.
    """
    sites = program.layout.sites
    phase = 1.0 + 0j
    for layer in program.layers:
        if layer.kind == "x":
            phase *= (-1j) ** len(layer.rotations)
        elif layer.kind == "cnot":
            phase *= cmath.exp(1j * sites * math.pi / 4)
        elif layer.kind == "generalized":
            phase *= layer.phase.conjugate()
    return phase


def _wrap(angle: float) -> float:
    """Reduce to (-pi, pi]."""
    return -((-angle + math.pi) % (2 * math.pi) - math.pi)


def check_quasienergy_spectrum(
    program: FloquetProgram, couplings: np.ndarray
) -> dict:
    """Verify every logical eigenstate and the quasienergy spacing law.

    Returns a JSON-friendly report; failures are reported, not raised.
    ``couplings`` are the Ising couplings the program was built from
    (they fix E0); everything else must be ideal.
    """
    if program.model not in ORACLE_MODELS:
        raise ValueError(
            f"model {program.model!r} has no logical decrement structure; "
            f"supported: {ORACLE_MODELS}"
        )
    layout = program.layout
    n = layout.n_chains
    count = 1 << n
    correction = engine_phase_correction(program)
    spacing_target = math.pi / 2 ** (n - 1)

    entries = []
    measured = []
    for ell in range(count):
        state = build_logical_eigenstate(layout, ell)
        evolved = state.copy()
        program.circuit.apply_to(evolved)
        lam = state.inner(evolved)
        residual = float(
            np.linalg.norm(evolved.amplitudes - lam * state.amplitudes)
        )
        phase = (-cmath.phase(lam / correction)) % (2 * math.pi)
        predicted = predicted_quasienergy(couplings, n, ell)
        entries.append(
            {
                "ell": ell,
                "residual": residual,
                "measured_quasienergy": phase,
                "predicted_quasienergy": predicted,
                "phase_error": abs(_wrap(phase - predicted)),
            }
        )
        measured.append(phase)

    spacings = [
        (measured[ell] - measured[(ell + 1) % count]) % (2 * math.pi)
        for ell in range(count)
    ]
    max_residual = max(e["residual"] for e in entries)
    max_phase_error = max(e["phase_error"] for e in entries)
    max_spacing_error = max(abs(s - spacing_target) for s in spacings)
    return {
        "model": program.model,
        "n_chains": n,
        "sites": layout.sites,
        "spacing_target": spacing_target,
        "entries": entries,
        "spacings": spacings,
        "max_residual": max_residual,
        "max_phase_error": max_phase_error,
        "max_spacing_error": max_spacing_error,
        "passed": bool(
            max_residual < RESIDUAL_TOL
            and max_phase_error < RESIDUAL_TOL
            and max_spacing_error < RESIDUAL_TOL
        ),
    }


def build_2t_eigenstates(
    layout: ChainLayout, z_field: np.ndarray | None = None
) -> tuple[StateVector, StateVector]:
    """The two exact eigenstates of the single-chain period-2 operator.

    With alpha = sum of the longitudinal fields, the eigenvectors are
    exp(-i*alpha/2)|0-bar> +- exp(+i*alpha/2)|1-bar> over sqrt(2); the
    eigenvalues +-(-i)**N exp(i*sum J) do not depend on alpha.
    """
    if layout.n_chains != 1:
        raise ValueError("the period-2 reference model lives on one chain")
    alpha = 0.0 if z_field is None else float(np.sum(z_field))
    ones = (1 << layout.sites) - 1
    states = []
    for sign in (1.0, -1.0):
        state = StateVector(layout.sites)
        state.amplitudes[:] = 0.0
        state.amplitudes[0] = cmath.exp(-0.5j * alpha) / math.sqrt(2)
        state.amplitudes[ones] = sign * cmath.exp(0.5j * alpha) / math.sqrt(2)
        states.append(state)
    return states[0], states[1]
