"""Z^n x| Z via a GL(n, Z) matrix."""

from __future__ import annotations

from fractions import Fraction

from ..errors import SpecError
from ..groups import Element, Group, _int, get_group, intern
from .zn import SkewFormCocycle, Zn


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_pow(A, e: int):
    """A^e for e >= 0, by binary exponentiation."""
    out = tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))
    while e:
        if e & 1:
            out = _mat_mul(out, A)
        e >>= 1
        if e:
            A = _mat_mul(A, A)
    return out


def _mat_vec(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A)))


def _det_inverse(A) -> tuple[int, tuple | None]:
    """The determinant of a square integer matrix and, when it is +-1, the
    inverse, whose entries are then ints: one Gauss-Jordan elimination of
    [A | I] over the rationals."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return 0, None
        if p != c:
            M[c], M[p], det = M[p], M[c], -det
        pivot = M[c][c]
        det *= pivot
        M[c] = [v / pivot for v in M[c]]
        for r in range(n):
            if r != c and (f := M[r][c]):
                M[r] = [u - f * v for u, v in zip(M[r], M[c])]
    return int(det), tuple(tuple(int(v) for v in row[n:]) for row in M) if abs(det) == 1 else None


class ZnSemidirectZ(Group):
    """Z^n x| Z, the integers acting through powers of an integer matrix."""

    family = "zn_semidirect"
    base_names = ("base",)

    def __init__(self, matrix):
        if not (
            isinstance(matrix, list)
            and matrix
            and all(isinstance(row, list) and len(row) == len(matrix) for row in matrix)
            and all(isinstance(x, int) and not isinstance(x, bool) for row in matrix for x in row)
        ):
            raise SpecError(
                f"matrix must be a nonempty square list of integer rows, got {matrix!r}", path="group.A"
            )
        A = tuple(tuple(row) for row in matrix)
        n = len(A)
        self.n = n
        self.A = A
        self.det, self.A_inv = _det_inverse(A)
        if self.A_inv is None:
            raise SpecError(f"matrix determinant must be +-1, got {self.det}", path="group.A")
        self._powers: dict[int, tuple] = {}
        super().__init__()
        self.key = f"zn_semidirect[{A}]"
        if n == 2:
            trace = A[0][0] + A[1][1]
            self.icc = abs(trace) > 1 + self.det
        else:
            self.icc = None
        self._lattice = get_group({"family": "zn", "n": n})

    def base_group(self) -> Group:
        return self._lattice

    def act(self, k: int, y):
        """The lattice payload y moved by A^k."""
        return _mat_vec(self.matrix_power(k), y)

    def check_lift_base(self, base) -> None:
        """Refuse a base cocycle that lives off the lattice, or a skew form
        that the matrix does not preserve."""
        if not isinstance(base.group, Zn) or base.group.n != self.n:
            raise SpecError("lift base must live on the translation lattice", path="cocycle.base")
        if isinstance(base, SkewFormCocycle) and self.det != 1:
            raise SpecError(
                "skew base cocycles are invariant only for determinant +1",
                path="cocycle.base",
            )

    def matrix_power(self, k: int):
        """A^k, by binary exponentiation from A, or from A^-1 when k < 0.
        The group keeps at most `TABLE_SIZE` powers."""
        return intern(self._powers, k, lambda: _mat_pow(self.A if k > 0 else self.A_inv, abs(k)))

    def _identity_data(self):
        return ((0,) * self.n, 0)

    def _mul(self, a, b):
        (x, k), (y, l) = a, b
        return (self._lattice._mul(x, self.act(k, y)), k + l)

    def _inv(self, a):
        x, k = a
        return (self.act(-k, self._lattice._inv(x)), -k)

    def _generators(self):
        zero = self._lattice._identity_data()
        return [(e, 0) for e in self._lattice._generators()] + [(zero, 1), (zero, -1)]

    def pair(self, vector, k: int) -> Element:
        return self.element((tuple(int(v) for v in vector), int(k)))

    def sort_key(self, data):
        x, k = data
        return (sum(abs(v) for v in x) + abs(k), abs(k), 0 if k >= 0 else 1, x)

    def length(self, g: Element) -> int:
        # documented proxy: translation part in the L1 norm plus the shift
        x, k = g.data
        return sum(abs(v) for v in x) + abs(k)

    def describe(self, data) -> str:
        return f"({data[0]}, t^{data[1]})"

    def element_to_json(self, g: Element):
        return {"v": list(g.data[0]), "k": g.data[1]}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or set(obj) != {"v", "k"}:
            raise SpecError('zn_semidirect element must be {"v": [...], "k": int}')
        return self.pair(self._lattice.element_from_json(obj["v"]).data, _int(obj["k"], "k"))
