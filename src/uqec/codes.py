"""Built-in quantum codes, Pauli error operators, and encoding maps.

Basis convention: an n-qubit basis string b1 b2 ... bn is read as a binary
number with qubit 1 the most significant bit, so |011> = |3> and |100> = |4>.
All amplitudes are real; Y is the real matrix [[0,-1],[1,0]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import basis_vector, gram_schmidt_extend

CODE_NAMES = ("bitflip3", "divincenzo5", "shor9")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureQubitState:
    """Single-qubit pure state alpha|0> + beta|1> with real amplitudes."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # Written so that NaN and inf amplitudes fail it.
        if not abs(self.alpha * self.alpha + self.beta * self.beta - 1.0) <= 1e-12:
            raise ValueError(f"state ({self.alpha}, {self.beta}) is not normalized")


@dataclass(frozen=True, eq=False)
class ErrorOperator:
    """A Pauli operator embedded on n qubits as a signed permutation matrix.

    perm and signs give the column decomposition: column j has the single
    entry signs[j] in row perm[j].
    """

    n: int
    label: str
    perm: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """W @ vec without forming the product."""
        out = np.empty_like(np.asarray(vec, dtype=float))
        out[self.perm] = self.signs * vec
        return out


def error_operator(kind: str, qubit: int, n: int) -> ErrorOperator:
    """Embed I, X, Y or Z acting on the given qubit (1..n) into 2^n dims: X
    and Y flip the qubit's bit, 1 << (n - qubit), of column j's index to give
    its row, and Z and Y negate the columns where that bit is 1."""
    if kind not in ("I", "X", "Y", "Z"):
        raise ValueError(f"unknown operator kind {kind!r}")
    if kind != "I" and not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    bit = 0 if kind == "I" else 1 << (n - qubit)
    index = np.arange(2 ** n)
    return ErrorOperator(
        n=n,
        label="I" if kind == "I" else f"{kind}_{qubit}",
        perm=_freeze(index ^ (bit if kind in ("X", "Y") else 0)),
        signs=_freeze(np.where(index & (bit if kind in ("Y", "Z") else 0), -1.0, 1.0)),
    )


@dataclass(frozen=True, eq=False)
class Code:
    """An [[n,1]] code given by its orthonormal logical basis vectors."""

    name: str
    n: int
    logical0: np.ndarray = field(repr=False)
    logical1: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d = 2 ** self.n
        l0, l1 = self.logical0, self.logical1
        if l0.shape != (d,) or l1.shape != (d,):
            raise ValueError(f"logical vectors must have dimension {d}")
        # Written so that NaN and inf entries fail them.
        if not (abs(l0 @ l0 - 1.0) <= 1e-12 and abs(l1 @ l1 - 1.0) <= 1e-12):
            raise ValueError("logical basis vectors must be unit norm")
        if not abs(l0 @ l1) <= 1e-12:
            raise ValueError("logical basis vectors must be orthogonal")

    @property
    def dim(self) -> int:
        return 2 ** self.n


# Logical |0> of the 5-qubit code: 16 basis strings with coefficient +-1/4.
_FIVE_LOGICAL0 = (
    ("00000", +1), ("11000", +1), ("01100", +1), ("00110", +1), ("00011", +1), ("10001", +1),
    ("10100", -1), ("01010", -1), ("00101", -1), ("10010", -1), ("01001", -1),
    ("11110", -1), ("01111", -1), ("10111", -1), ("11011", -1), ("11101", -1),
)


def bitflip3() -> Code:
    """3-qubit repetition code against bit flips: |0>_L=|000>, |1>_L=|111>."""
    return Code(
        name="bitflip3",
        n=3,
        logical0=_freeze(basis_vector(8, 0)),
        logical1=_freeze(basis_vector(8, 7)),
    )


def divincenzo5() -> Code:
    """The [[5,1,3]] code correcting any single-qubit Pauli error."""
    l0 = np.zeros(32)
    for bits, sign in _FIVE_LOGICAL0:
        l0[int(bits, 2)] = sign * 0.25
    return Code(
        name="divincenzo5",
        n=5,
        logical0=_freeze(l0),
        # Each basis string of |0>_L complemented, with its sign: j -> 31 - j.
        logical1=_freeze(l0[::-1].copy()),
    )


def shor9() -> Code:
    """The 9-qubit code: three GHZ blocks, |b>_L = ((|000>+(-1)^b |111>)/sqrt2)^x3."""
    ghz_plus = np.zeros(8)
    ghz_plus[0] = ghz_plus[7] = 1.0 / np.sqrt(2.0)
    ghz_minus = np.zeros(8)
    ghz_minus[0] = 1.0 / np.sqrt(2.0)
    ghz_minus[7] = -1.0 / np.sqrt(2.0)
    l0 = np.kron(np.kron(ghz_plus, ghz_plus), ghz_plus)
    l1 = np.kron(np.kron(ghz_minus, ghz_minus), ghz_minus)
    return Code(name="shor9", n=9, logical0=_freeze(l0), logical1=_freeze(l1))


@lru_cache(maxsize=None)
def get_code(name: str) -> Code:
    """Look up a built-in code by registry name."""
    builders = {"bitflip3": bitflip3, "divincenzo5": divincenzo5, "shor9": shor9}
    if name not in builders:
        raise ValueError(f"unknown code {name!r}; valid names: {', '.join(CODE_NAMES)}")
    return builders[name]()


@lru_cache(maxsize=None)
def _standard_error_set(name: str) -> tuple[ErrorOperator, ...]:
    code = get_code(name)
    n = code.n
    if name == "bitflip3":
        return (error_operator("I", 0, n),) + tuple(
            error_operator("X", q, n) for q in range(1, n + 1)
        )
    ops = [error_operator("I", 0, n)]
    for kind in ("X", "Y", "Z"):
        ops.extend(error_operator(kind, q, n) for q in range(1, n + 1))
    return tuple(ops)


def standard_error_set(code: Code) -> tuple[ErrorOperator, ...]:
    """The code's correctable single-operator set, in channel order.

    bitflip3: (I, X_1, X_2, X_3). The 5- and 9-qubit codes: identity, then
    all X_i, all Y_i, all Z_i.
    """
    return _standard_error_set(code.name)


def encode_state(code: Code, psi: PureQubitState) -> np.ndarray:
    """alpha |0>_L + beta |1>_L as a 2^n vector."""
    return psi.alpha * code.logical0 + psi.beta * code.logical1


def encoding_unitary(code: Code) -> np.ndarray:
    """Orthogonal matrix U sending |0>|0..0> to |0>_L and |1>|0..0> to |1>_L.

    The data qubit is qubit 1, so the two pinned input columns are 0 and
    2^(n-1). Free columns in the first half are completed by Gram-Schmidt
    over the standard basis in ascending index order, those in the second
    half in descending order; for bitflip3 this reproduces the controlled
    NOT-NOT gate exactly.
    """
    d = code.dim
    half = d // 2
    pinned = np.vstack([code.logical0, code.logical1])
    lower = gram_schmidt_extend(pinned, range(d), half - 1)
    upper = gram_schmidt_extend(np.vstack([pinned, lower]), range(d - 1, -1, -1), half - 1)
    cols = np.empty((d, d))
    cols[0] = code.logical0
    cols[1:half] = lower
    cols[half] = code.logical1
    cols[half + 1 :] = upper
    return cols.T
