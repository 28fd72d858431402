"""Exact Pauli string algebra with phase tracking.

A Pauli string is a tensor product of single-qubit letters I, X, Y, Z
together with a global phase restricted to {+1, -1, +i, -i}.  The phase
is held only as an exponent k with phase = i**k, so products, commutation
checks and pi/4 Clifford conjugation are exact integer arithmetic and
never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

LETTERS = ("I", "X", "Y", "Z")

# (a, b) -> (phase exponent of i, product letter) for single-site products a*b.
_SITE_PRODUCT = {
    ("I", "I"): (0, "I"),
    ("I", "X"): (0, "X"),
    ("I", "Y"): (0, "Y"),
    ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"),
    ("Y", "I"): (0, "Y"),
    ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"),
    ("Y", "Y"): (0, "I"),
    ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"),
    ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"),
    ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"),
    ("X", "Z"): (3, "Y"),
}

_PHASE_TEXT = ("+1", "+i", "-1", "-i")


@dataclass(frozen=True)
class PauliString:
    """Immutable Pauli string: phase * (letter on each qubit).

    ``letters[q]`` is the letter acting on qubit q, and ``phase_power``
    (mod 4) is the one form of the global phase i**phase_power.
    """

    letters: tuple[str, ...]
    phase_power: int = 0

    def __post_init__(self):
        for c in self.letters:
            if c not in LETTERS:
                raise ValueError(f"invalid Pauli letter {c!r}")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @classmethod
    def from_ops(cls, n_qubits: int, ops: Mapping[int, str]) -> "PauliString":
        """A phase +1 string on ``n_qubits`` qubits from a {qubit: letter} map."""
        letters = ["I"] * n_qubits
        for q, c in ops.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} outside register of size {n_qubits}")
            letters[q] = c
        return cls(tuple(letters))

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, c in enumerate(self.letters) if c != "I")

    def is_hermitian(self) -> bool:
        return self.phase_power in (0, 2)

    def __str__(self) -> str:
        body = " ".join(f"{c}{q}" for q, c in enumerate(self.letters) if c != "I")
        return f"{_PHASE_TEXT[self.phase_power]} {body if body else 'I'}"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a * b, phase folded into the result."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot multiply strings on different register sizes")
    power = a.phase_power + b.phase_power
    letters = []
    for x, y in zip(a.letters, b.letters):
        dp, c = _SITE_PRODUCT[(x, y)]
        power += dp
        letters.append(c)
    return PauliString(tuple(letters), power)


def anticommutes(a: PauliString, b: PauliString) -> bool:
    """True when a and b anticommute (odd number of clashing sites)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("cannot compare strings on different register sizes")
    clashes = sum(
        1
        for x, y in zip(a.letters, b.letters)
        if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 1


def clifford_conjugate(
    generator: PauliString, sign: int, target: PauliString
) -> tuple[PauliString, bool]:
    """Conjugate ``target`` by exp(sign * i*pi/4 * generator).

    For anticommuting generator and target the image is
    i*sign*generator*target; commuting targets pass through untouched.
    Returns (image, moved) where ``moved`` records whether anything
    happened.  The image of a Hermitian target is Hermitian; every caller
    relies on it, so a non-Hermitian image raises ValueError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not generator.is_hermitian():
        raise ValueError("conjugation generator must carry a +-1 phase")
    if not anticommutes(generator, target):
        return target, False
    product = multiply(generator, target)
    # i * sign shifts the phase exponent by 1 (sign +1) or 3 (sign -1).
    power = (product.phase_power + (1 if sign == 1 else 3)) % 4
    result = PauliString(product.letters, power)
    if not result.is_hermitian():
        raise ValueError("conjugation of a Hermitian string went non-Hermitian")
    return result, True


@dataclass(frozen=True)
class PauliRotation:
    """The unitary exp(-i * angle * pauli).

    The generator must carry phase +1; sign information belongs in the
    angle.
    """

    pauli: PauliString
    angle: float

    def __post_init__(self):
        if self.pauli.phase_power != 0:
            raise ValueError(
                "rotation generator must have phase +1; fold signs into the angle"
            )

    @property
    def n_qubits(self) -> int:
        return self.pauli.n_qubits

    def inverse(self) -> "PauliRotation":
        return PauliRotation(self.pauli, -self.angle)

    def __str__(self) -> str:
        return f"exp(-i {self.angle:+.6g} {self.pauli})"


def all_commute(rotations: Iterable[PauliRotation]) -> bool:
    """Check pairwise commutation of the generators of a set of rotations."""
    rots = list(rotations)
    for i, a in enumerate(rots):
        for b in rots[i + 1 :]:
            if anticommutes(a.pauli, b.pauli):
                return False
    return True
