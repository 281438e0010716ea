"""Modules over osp(1|2) x osp(1|2) and the induced action on primitive vectors.

Building blocks: the finite-dimensional irreducibles V(lambda) of a single
osp(1|2) (exact matrices over Q(sqrt 2)), the odd-polynomial module C[x]
truncated at a configurable degree, and their tensor product carrying the
diagonal/anti-diagonal action.  Primitive vectors (annihilated by the
raising subalgebra) are extracted weight by weight, and the reduction
algebra acts on them through the projected-generator representatives.

Scalars are Q(sqrt 2) throughout: the odd polynomial actions carry 1/sqrt 2
while all final matrix entries come out rational.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import H, INV_SQRT2, RationalFunction, Sqrt2
from .engine import LinComb
from .projector import phi, projected_generator
from .uea import (
    GENERATORS,
    TILDE_GENS,
    UeaElement,
    X1,
    X2,
    XN1,
    _base_bracket,
    word_letters,
)
from .zalgebra import RULE_KEYS, Z_ROOTS, Z_TOKENS, ZElement, ZMonomial, derived_rule

_SR_ZERO = Sqrt2(0)
_SR_ONE = Sqrt2(1)


class TruncationOverflow(ArithmeticError):
    """A lowering operator pushed past the polynomial truncation degree."""


class WindowNotClosed(ValueError):
    """The truncation is too small to contain a full weight space."""


class NotPrimitive(ValueError):
    """A reduction-algebra action was requested on a non-primitive vector."""


# ---------------------------------------------------------------------------
# Small exact linear algebra over Q(sqrt 2)


def mat_mul(a, b):
    """a b, skipping zero entries: the matrices here are mostly zero."""
    out = []
    for row in a:
        acc = [_SR_ZERO] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x if x else x for x in row] for row in a]


def mat_zero(n, m=None):
    m = n if m is None else m
    return [[_SR_ZERO] * m for _ in range(n)]


def mat_eye(n):
    return [[_SR_ONE if i == j else _SR_ZERO for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    m = len(rows[0])
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by `rows`."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_SR_ZERO] * ncols
        vec[fc] = _SR_ONE
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(vec)
    return basis


def span_dim(rows) -> int:
    return len(rref(rows)[0])


def solve_in_span(basis_rows, target):
    """Coefficients expressing `target` in the span of `basis_rows`, or None."""
    n = len(basis_rows)
    if n == 0:
        return [] if not any(target) else None
    cols = len(target)
    aug = [[basis_rows[i][c] for i in range(n)] + [target[c]] for c in range(cols)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the rightmost column: inconsistent
        return None
    coeffs = [_SR_ZERO] * n
    for r, pc in zip(red, pivots):
        coeffs[pc] = r[-1]
    return coeffs


# ---------------------------------------------------------------------------
# Irreducible osp(1|2) modules


_OSP_ROOTS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class IrrepData:
    """V(lambda): matrices of the five generators.

    Basis u_0 .. u_{2 lambda} with h u_j = (-lambda + j) u_j; raising
    operators (positive roots) move down the ladder, lowering operators up,
    following [h, x_{k alpha}] = -k x_{k alpha}.
    """

    lam: int
    matrices: dict  # root -> matrix over Sqrt2

    @property
    def dimension(self) -> int:
        return 2 * self.lam + 1

    def h_eigenvalue(self, j: int) -> Fraction:
        """Read off the (diagonal) h matrix, so any basis ordering works."""
        entry = self.matrices[0][j][j]
        return entry.a

    @classmethod
    def from_highest_weight(cls, lam: int) -> "IrrepData":
        if lam < 0:
            raise ValueError("lambda must be a non-negative integer")
        n = 2 * lam + 1
        c = [Fraction(0)] * (n + 1)
        for j in range(n):
            c[j + 1] = Fraction(-lam + j) - c[j]
        lower = mat_zero(n)  # x_{-alpha}: u_j -> u_{j+1}
        raise_ = mat_zero(n)  # x_alpha: u_j -> c_j u_{j-1}
        h = mat_zero(n)
        for j in range(n):
            h[j][j] = Sqrt2(Fraction(-lam + j))
            if j + 1 < n:
                lower[j + 1][j] = _SR_ONE
            if j - 1 >= 0:
                raise_[j - 1][j] = Sqrt2(c[j])
        # even root vectors through the odd squares:
        #   x_{2a} = -x_a^2,  x_{-2a} = x_{-a}^2
        mats = {
            -1: lower,
            1: raise_,
            0: h,
            -2: mat_mul(lower, lower),
            2: mat_scale(Sqrt2(-1), mat_mul(raise_, raise_)),
        }
        rep = cls(lam, mats)
        rep.validate()
        return rep

    @classmethod
    def standard(cls) -> "IrrepData":
        """C^{1|2}: basis v_0 (even), v_1, v_2 (odd)."""

        def e(i, j, n=3):
            m = mat_zero(n)
            m[i][j] = _SR_ONE
            return m

        mats = {
            -2: e(1, 2),
            -1: mat_add(e(0, 2), e(1, 0)),
            0: mat_add(e(1, 1), mat_scale(Sqrt2(-1), e(2, 2))),
            1: mat_add(e(0, 1), mat_scale(Sqrt2(-1), e(2, 0))),
            2: e(2, 1),
        }
        rep = cls(1, mats)
        rep.validate()
        return rep

    def validate(self):
        """All nine supercommutator relations, as exact matrix identities.
        The matrices are mostly zero, so each row of [a, b] minus its
        bracket table value is summed over nonzero entries only."""
        rows = {
            root: [{j: x for j, x in enumerate(row) if x} for row in m]
            for root, m in self.matrices.items()
        }
        for j in _OSP_ROOTS:
            for k in _OSP_ROOTS:
                ba_sign = 1 if (abs(j) == 1 and abs(k) == 1) else -1
                for i in range(self.dimension):
                    acc: dict = {}
                    for c, x, y in ((1, j, k), (ba_sign, k, j)):
                        for l, v in rows[x][i].items():
                            for col, w in rows[y][l].items():
                                acc[col] = acc.get(col, _SR_ZERO) + c * v * w
                    for label, coeff in _base_bracket(j, k).items():
                        for col, v in rows[label][i].items():
                            acc[col] = acc.get(col, _SR_ZERO) - coeff * v
                    if any(acc.values()):
                        raise AssertionError(f"bracket [{j}, {k}] fails for lambda={self.lam}")


# ---------------------------------------------------------------------------
# The odd polynomial module and the tensor module


@dataclass(frozen=True)
class PolyModule:
    """C[x] with x odd, truncated at degree N.

    x_alpha acts as (1/sqrt 2) d/dx and x_{-alpha} as (1/sqrt 2) x; the even
    root vectors are the corresponding odd squares, and h follows from
    [x_alpha, x_{-alpha}] = h: the eigenvalue on x^k is k + 1/2.
    """

    trunc: int

    def h_eigenvalue(self, k: int) -> Fraction:
        return Fraction(2 * k + 1, 2)

    def act(self, root: int, k: int) -> tuple[int, Sqrt2]:
        """Image of x^k under the root-`root` generator: (degree, scalar)."""
        if root == 1:
            return k - 1, INV_SQRT2 * k
        if root == -1:
            if k + 1 > self.trunc:
                raise TruncationOverflow(f"degree {k + 1} exceeds truncation {self.trunc}")
            return k + 1, INV_SQRT2
        if root == 2:  # -x_alpha^2 = -(1/2) d^2/dx^2
            return k - 2, Sqrt2(Fraction(-k * (k - 1), 2))
        if root == -2:  # x_{-alpha}^2 = (1/2) x^2
            if k + 2 > self.trunc:
                raise TruncationOverflow(f"degree {k + 2} exceeds truncation {self.trunc}")
            return k + 2, Sqrt2(Fraction(1, 2))
        if root == 0:
            return k, Sqrt2(self.h_eigenvalue(k))
        raise ValueError(f"unknown root {root}")


def weight_window(low: Fraction, high: Fraction) -> list[Fraction]:
    """low, low + 1, ... up to high."""
    return [low + k for k in range((high - low) // 1 + 1)]


def coordinate_rows(vectors) -> tuple[list, list]:
    """The basis tensors the vectors involve, in order of first appearance,
    and each vector's coordinates on them."""
    support: list[tuple[int, int]] = []
    for v in vectors:
        for key in v.terms:
            if key not in support:
                support.append(key)
    return support, [[v.terms.get(key, _SR_ZERO) for key in support] for v in vectors]


class ModuleVector(LinComb):
    """Element of C[x] (x) V(lambda): coordinates on basis tensors x^k (x) v_i."""

    __slots__ = ()
    coerce = staticmethod(lambda c: c if isinstance(c, Sqrt2) else Sqrt2(c))

    @classmethod
    def basis(cls, k: int, i: int) -> "ModuleVector":
        return cls({(k, i): _SR_ONE})

    def __repr__(self):
        bits = [f"({c}) x^{k}*v{i}" for (k, i), c in sorted(self.terms.items())]
        return "ModuleVector(" + " + ".join(bits or ["0"]) + ")"


@dataclass(frozen=True)
class TensorModule:
    """C[x] (x) V(lambda) with the two commuting osp(1|2) actions.

    Diagonal generators act as a (x) 1 + 1 (x) a, anti-diagonal ones as
    a (x) 1 - 1 (x) a, with the sign rule
    (1 (x) a)(x^k (x) v) = (-1)^{|a| k} x^k (x) (a v).
    """

    poly: PolyModule
    irrep: IrrepData

    @classmethod
    def standard(cls, trunc: int) -> "TensorModule":
        return cls(PolyModule(trunc), IrrepData.standard())

    def weight(self, k: int, i: int) -> Fraction:
        return self.poly.h_eigenvalue(k) + self.irrep.h_eigenvalue(i)

    def basis_of_weight(self, mu: Fraction) -> list[tuple[int, int]]:
        """All basis tensors of H-eigenvalue mu; raises WindowNotClosed if
        the truncation cuts the eigenspace short."""
        mu = Fraction(mu)
        out = []
        for i in range(self.irrep.dimension):
            k2 = mu - Fraction(1, 2) - self.irrep.h_eigenvalue(i)
            if k2.denominator != 1 or k2 < 0:
                continue
            k = int(k2)
            if k > self.poly.trunc:
                raise WindowNotClosed(
                    f"weight {mu} needs x^{k} but truncation is {self.poly.trunc}"
                )
            out.append((k, i))
        return out

    # -- actions -------------------------------------------------------
    def _act_left(self, root: int, v: ModuleVector) -> ModuleVector:
        out: dict = {}
        for (k, i), c in v.terms.items():
            k2, s = self.poly.act(root, k)
            if k2 < 0 or not s:
                continue
            key = (k2, i)
            out[key] = out.get(key, _SR_ZERO) + c * s
        return ModuleVector(out)

    def _act_right(self, root: int, v: ModuleVector) -> ModuleVector:
        mat = self.irrep.matrices[root]
        odd = abs(root) == 1
        out: dict = {}
        for (k, i), c in v.terms.items():
            sign = -1 if (odd and k % 2) else 1
            for i2 in range(self.irrep.dimension):
                s = mat[i2][i]
                if not s:
                    continue
                key = (k, i2)
                out[key] = out.get(key, _SR_ZERO) + c * s * Sqrt2(sign)
        return ModuleVector(out)

    def act(self, g: int, v: ModuleVector) -> ModuleVector:
        """Action of one generator of U (by index); th, the anti-diagonal
        generator of root 0, acts as h (x) 1 - 1 (x) h."""
        info = GENERATORS[g]
        left = self._act_left(info.root, v)
        right = self._act_right(info.root, v)
        if info.diagonal:
            return left + right
        return left - right

    def act_coeff(self, f: RationalFunction, v: ModuleVector) -> ModuleVector:
        """f(H) acting by evaluation on H-eigencomponents."""
        out: dict = {}
        for b, c in v.terms.items():
            value = f.eval(self.weight(*b))  # off-pole: weights are in 1/2 + Z
            out[b] = out.get(b, _SR_ZERO) + c * Sqrt2(value)
        return ModuleVector(out)

    def act_uea(self, u: UeaElement, v: ModuleVector) -> ModuleVector:
        """Action of a normal-ordered element: letters right to left, the
        left coefficient last."""
        return self._act_sum(u, word_letters, self.act, v)

    def _act_sum(self, element, letters, act_letter, v: ModuleVector) -> ModuleVector:
        """Action of a sum of words with left coefficients, where
        act_letter(g, w) is the action of one letter."""
        total = ModuleVector()
        for mono, coeff in element:
            w = v
            for g in reversed(letters(mono)):
                w = act_letter(g, w)
                if not w:
                    break
            if w:
                total = total + self.act_coeff(coeff, w)
        return total

    # -- primitive vectors and the reduction-algebra action ------------
    def is_primitive(self, v: ModuleVector) -> bool:
        return not self.act(X1, v) and not self.act(X2, v)

    def primitive_vectors(self, weights) -> list[ModuleVector]:
        """Basis of the primitive subspace, weight by weight: the kernel of
        the stacked raising actions, echeloned over Q(sqrt 2)."""
        out: list[ModuleVector] = []
        for mu in weights:
            basis = self.basis_of_weight(Fraction(mu))
            if not basis:
                continue
            images = []
            for k, i in basis:
                images.append(self.act(X1, ModuleVector.basis(k, i)))
                images.append(self.act(X2, ModuleVector.basis(k, i)))
            targets, coords = coordinate_rows(images)
            if not targets:  # every raising image already vanishes
                out.extend(ModuleVector.basis(k, i) for k, i in basis)
                continue
            rows = [coords[j] + coords[j + 1] for j in range(0, len(coords), 2)]
            # kernel of the transpose: combinations of basis vectors killed
            cols = [[rows[j][c] for j in range(len(rows))] for c in range(len(rows[0]))]
            for vec in kernel_basis(cols, len(basis)):
                out.append(
                    ModuleVector({basis[j]: vec[j] for j in range(len(basis))})
                )
        return out

    def apply_projector(self, v: ModuleVector) -> ModuleVector:
        """The extremal projector sum_n phi_n(H) X(-1)^n X(1)^n; finitely
        many terms act on any vector (the raising action is nilpotent here)."""
        total = ModuleVector()
        n = 0
        w = v
        while w:
            acted = w
            for _ in range(n):
                acted = self.act(XN1, acted)
            total = total + self.act_coeff(phi(n), acted)
            n += 1
            w = self.act(X1, w)
            if n > 4 * (self.poly.trunc + 2 * self.irrep.lam + 2):
                raise RuntimeError("projector series failed to terminate")
        return total

    def act_z(self, z: ZElement, v: ModuleVector) -> ModuleVector:
        """The reduction-algebra action on a primitive vector, through the
        projected-generator representatives."""
        if not self.is_primitive(v):
            raise NotPrimitive("vector is not annihilated by the raising operators")

        def act_letter(g, w):
            return self.act_uea(projected_generator(TILDE_GENS[g]), w)

        return self._act_sum(z, ZMonomial.letters, act_letter, v)

    def rho_matrix(self, z: ZElement, basis: list[ModuleVector]):
        """Matrix of the z-action on the span of `basis` (columns act on
        basis vectors; entries over Q(sqrt 2))."""
        support, rows = coordinate_rows(basis)
        n = len(basis)
        out = mat_zero(n)
        for j, b in enumerate(basis):
            image = self.act_z(z, b)
            target = [image.terms.get(key, _SR_ZERO) for key in support]
            extra = [key for key in image.terms if key not in support]
            coeffs = None if extra else solve_in_span(rows, target)
            if coeffs is None:
                raise NotPrimitive("image left the primitive span")
            for i in range(n):
                out[i][j] = coeffs[i]
        return out


# ---------------------------------------------------------------------------
# Relation checking on matrices


def _rf_on_diag(f: RationalFunction, eigen: list[Fraction]):
    return [
        [Sqrt2(f.eval(mu)) if i == j else _SR_ZERO for j, _ in enumerate(eigen)]
        for i, mu in enumerate(eigen)
    ]


def check_rep_relations(rho: dict, eigen: list[Fraction]) -> dict:
    """Substitute generator matrices into every rewrite-rule family.

    `rho` maps z-generator index (0..4) to a matrix over Q(sqrt 2) in an
    H-eigenbasis with eigenvalues `eigen`; f(H) becomes diag(f(mu_i)).
    """
    n = len(eigen)

    def z_matrix(zel: ZElement):
        total = mat_zero(n)
        for mono, coeff in zel:
            m = mat_eye(n)
            for g in mono.letters():
                m = mat_mul(m, rho[g])
            total = mat_add(total, mat_mul(_rf_on_diag(coeff, eigen), m))
        return total

    checks = []
    for a, b in RULE_KEYS:
        lhs = mat_mul(rho[a], rho[b])
        rhs = z_matrix(derived_rule(a, b))
        checks.append(
            {"name": f"{Z_TOKENS[a]} {Z_TOKENS[b]}", "pass": lhs == rhs}
        )
    f = RationalFunction(1, H - 1)
    fm = _rf_on_diag(f, eigen)
    cartan = mat_mul(fm, rho[2]) == mat_mul(rho[2], fm)
    checks.append({"name": "f(H) E(0) commutation", "pass": cartan})
    shift_ok = True
    for g in range(5):
        fs = _rf_on_diag(f.shift(Z_ROOTS[g]), eigen)
        if mat_mul(rho[g], fm) != mat_mul(fs, rho[g]):
            shift_ok = False
    checks.append({"name": "E(k) f(H) shift", "pass": shift_ok})
    return {"passed": all(c["pass"] for c in checks), "checks": checks}


def irreducibility_witness(rho: dict, eigen: list[Fraction]) -> bool:
    """Weight-graph certificate: with distinct H-eigenvalues `eigen`,
    f(H) = diag(f(mu_i)) separates the basis vectors, so every submodule is
    spanned by some of them, and the module is irreducible exactly when the
    graph with an edge j -> i wherever some rho[g][i][j] != 0 is strongly
    connected."""
    n = len(eigen)
    if len(set(eigen)) != n:
        raise ValueError(f"H-eigenvalues must be distinct, got {eigen}")
    edges = {(j, i) for m in rho.values() for i, row in enumerate(m) for j, x in enumerate(row) if x}

    def reaches_all(arrows) -> bool:
        seen = {0}
        while grown := {t for s, t in arrows if s in seen} - seen:
            seen |= grown
        return len(seen) == n

    return reaches_all(edges) and reaches_all({(i, j) for j, i in edges})
