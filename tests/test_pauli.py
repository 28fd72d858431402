import numpy as np
import pytest

from repdtc import PauliRotation, PauliString
from repdtc.pauli import all_commute, anticommutes, clifford_conjugate, multiply

from conftest import dense_pauli


def random_string(rng, n):
    letters = tuple(rng.choice(("I", "X", "Y", "Z")) for _ in range(n))
    return PauliString(letters, int(rng.integers(4)))


def dense_of(p):
    """The matrix of ``p``, its phase i**phase_power included."""
    return dense_pauli(p.n_qubits, dict(enumerate(p.letters)), 1j**p.phase_power)


class TestPauliString:
    def test_from_ops_places_letters(self):
        p = PauliString.from_ops(4, {0: "Z", 2: "X"})
        assert p.letters == ("Z", "I", "X", "I")
        assert p.phase_power == 0
        assert p.weight == 2
        assert p.support() == (0, 2)

    def test_phase_wraps_mod_four(self):
        p = PauliString(("X",), 7)
        assert p.phase_power == 3
        assert 1j**p.phase_power == -1j

    def test_from_ops_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_ops(2, {5: "X"})

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            PauliString(("Q",))

    # Each id names the phase i**power.
    @pytest.mark.parametrize(
        "power,hermitian",
        [(0, True), (2, True), (1, False)],
        ids=["1-True", "-1-True", "1j-False"],
    )
    def test_hermiticity(self, power, hermitian):
        p = PauliString(("Y",), power)
        assert p.is_hermitian() is hermitian

    def test_identity(self):
        p = PauliString.from_ops(3, {})
        assert p.weight == 0
        assert p.n_qubits == 3


class TestMultiply:
    @pytest.mark.parametrize(
        "a,b,expect,phase",
        [
            ("X", "Y", "Z", 1j),
            ("Y", "X", "Z", -1j),
            ("Z", "X", "Y", 1j),
            ("Y", "Z", "X", 1j),
            ("X", "X", "I", 1),
        ],
    )
    def test_single_site_table(self, a, b, expect, phase):
        pa = PauliString.from_ops(1, {0: a})
        pb = PauliString.from_ops(1, {0: b})
        prod = multiply(pa, pb)
        assert prod.letters == (expect,)
        assert 1j**prod.phase_power == phase

    def test_matches_dense_product(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a, b = random_string(rng, n), random_string(rng, n)
            prod = multiply(a, b)
            assert np.allclose(dense_of(a) @ dense_of(b), dense_of(prod))

    def test_register_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(PauliString.from_ops(2, {}), PauliString.from_ops(3, {}))


class TestAnticommutes:
    def test_disjoint_support_commutes(self):
        a = PauliString.from_ops(3, {0: "X"})
        b = PauliString.from_ops(3, {2: "Z"})
        assert not anticommutes(a, b)

    def test_single_clash(self):
        a = PauliString.from_ops(2, {0: "X", 1: "Z"})
        b = PauliString.from_ops(2, {0: "Z", 1: "Z"})
        assert anticommutes(a, b)

    def test_two_clashes_cancel(self):
        a = PauliString.from_ops(2, {0: "X", 1: "X"})
        b = PauliString.from_ops(2, {0: "Z", 1: "Z"})
        assert not anticommutes(a, b)

    def test_matches_dense_commutator(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a, b = random_string(rng, n), random_string(rng, n)
            da = dense_pauli(n, dict(enumerate(a.letters)))
            db = dense_pauli(n, dict(enumerate(b.letters)))
            anti = np.allclose(da @ db, -db @ da)
            assert anticommutes(a, b) == anti


class TestCliffordConjugate:
    def test_commuting_target_untouched(self):
        g = PauliString.from_ops(2, {0: "Z", 1: "Z"})
        t = PauliString.from_ops(2, {0: "Z"})
        image, moved = clifford_conjugate(g, 1, t)
        assert not moved and image == t

    def test_anticommuting_target_rotates(self):
        g = PauliString.from_ops(1, {0: "Z"})
        t = PauliString.from_ops(1, {0: "X"})
        image, moved = clifford_conjugate(g, 1, t)
        assert moved
        # exp(i pi/4 Z) X exp(-i pi/4 Z) = -Y
        assert image.letters == ("Y",)
        assert image.phase_power == 2

    def test_matches_dense_conjugation(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            g = PauliString(random_string(rng, n).letters)
            t = PauliString(random_string(rng, n).letters)
            sign = 1 if rng.random() < 0.5 else -1
            image, _ = clifford_conjugate(g, sign, t)
            u = dense_rotation_matrix(n, g, -sign * np.pi / 4)
            dense_t = dense_pauli(n, dict(enumerate(t.letters)))
            got = u @ dense_t @ u.conj().T
            assert np.allclose(got, dense_of(image), atol=1e-12)

    def test_rejects_non_hermitian_generator(self):
        g = PauliString(("X",), 1)
        with pytest.raises(ValueError):
            clifford_conjugate(g, 1, PauliString.from_ops(1, {0: "Z"}))

    def test_rejects_bad_sign(self):
        g = PauliString.from_ops(1, {0: "X"})
        with pytest.raises(ValueError):
            clifford_conjugate(g, 2, g)


def dense_rotation_matrix(n, pauli, theta):
    p = dense_pauli(n, dict(enumerate(pauli.letters)))
    return np.cos(theta) * np.eye(1 << n) - 1j * np.sin(theta) * p


class TestPauliRotation:
    def test_rejects_phased_generator(self):
        with pytest.raises(ValueError):
            PauliRotation(PauliString(("X",), 1), 0.5)

    def test_inverse(self):
        rot = PauliRotation(PauliString.from_ops(2, {0: "Z", 1: "X"}), 0.3)
        assert rot.inverse().angle == -0.3


class TestAllCommute:
    def test_stabilizer_layer_commutes(self):
        rots = [
            PauliRotation(PauliString.from_ops(4, {j: "Z", j + 1: "Z"}), 0.1)
            for j in range(3)
        ]
        assert all_commute(rots)

    def test_clashing_pair(self):
        a = PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.1)
        b = PauliRotation(PauliString.from_ops(2, {0: "X"}), 0.1)
        assert not all_commute([a, b])
