"""Modules over osp(1|2) x osp(1|2) and the induced action on primitive vectors.

Building blocks: the finite-dimensional irreducibles V(lambda) of a single
osp(1|2) (each generator a sparse map over Q: the image of every basis
vector), the odd-polynomial module C[x] truncated at a configurable degree,
and their tensor product carrying the diagonal/anti-diagonal action.
Primitive vectors (annihilated by the raising subalgebra) are
extracted weight by weight, and the reduction algebra acts on them through
the projected-generator representatives.  All linear algebra on module
vectors is one Gaussian elimination on the sparse vectors themselves.  The
action matrices are dense lists of rows, but the relation check turns them
into sparse column images and acts on coordinate vectors with the same
sum-of-monomials loop as the module action; no matrix is multiplied.

Scalars are int or Fraction throughout, never float.  C[x] is held in the
basis y_k = x^k / sqrt(2)^k, on which every generator acts over Q; only
`x_basis_text` writes a vector in the published basis x^k, whose
coordinates carry powers of sqrt 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import H, RationalFunction, _rational
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
)
from .zalgebra import RULE_KEYS, Z_ROOTS, Z_TOKENS, ZElement, derived_rule


class TruncationOverflow(ArithmeticError):
    """A lowering operator pushed past the polynomial truncation degree."""


class WindowNotClosed(ValueError):
    """The truncation is too small to contain a full weight space."""


class NotPrimitive(ValueError):
    """A reduction-algebra action was requested on a non-primitive vector."""


# ---------------------------------------------------------------------------
# Small exact linear algebra over Q


def eliminate(pairs):
    """Gaussian elimination over (image, source) pairs of sparse vectors,
    taken in order.  Returns the pivots, (key, image, source) triples whose
    image is 1 at its key and 0 at the keys of the pivots before it, and the
    reduced source of each image that reduces to zero.

    With distinct basis vectors as sources, the reduced source of input j is
    its source minus a combination of earlier pivot sources: coefficient 1
    at input j and 0 at every other input that reduces to zero, the kernel
    vector reduced row echelon form gives."""
    pivots, null = [], []
    for image, source in pairs:
        image, source = reduce_vector(image, source, pivots)
        if image:
            key, c = next(iter(image))
            inv = Fraction(1) / c
            pivots.append((key, image.scale(inv), source.scale(inv)))
        else:
            null.append(source)
    return pivots, null


def reduce_vector(image, source, pivots):
    """`image` minus the combination of pivot images that clears it at
    every pivot key, and `source` minus the same combination of pivot
    sources."""
    for key, p_image, p_source in pivots:
        c = image.terms.get(key)
        if c:
            image = image - p_image.scale(c)
            source = source - p_source.scale(c)
    return image, source


def span_dim(vectors) -> int:
    return len(eliminate((v, ModuleVector()) for v in vectors)[0])


# ---------------------------------------------------------------------------
# Irreducible osp(1|2) modules


def _apply(images, vec: dict, scale=1, acc=None) -> dict:
    """acc + scale * (the map applied to vec), for a map given by the
    sparse images of the basis vectors, images[j] = {i: entry}, and a
    sparse vector vec = {j: coefficient}."""
    acc = {} if acc is None else acc
    for j, c in vec.items():
        c = c if scale == 1 else scale * c
        for i, x in images[j].items():
            acc[i] = acc[i] + c * x if i in acc else c * x
    return acc


@dataclass(frozen=True)
class IrrepData:
    """V(lambda): the five generators as sparse maps.

    Basis u_0 .. u_{2 lambda} with h u_j = (-lambda + j) u_j; raising
    operators (positive roots) move down the ladder, lowering operators up,
    following [h, x_{k alpha}] = -k x_{k alpha}.
    """

    lam: int
    matrices: dict  # root -> images, images[j] = {i: rational entry} is x u_j

    @property
    def dimension(self) -> int:
        return 2 * self.lam + 1

    def h_eigenvalue(self, j: int) -> Fraction:
        """Read off the (diagonal) h map, so any basis ordering works."""
        return Fraction(self.matrices[0][j].get(j, 0))

    @classmethod
    def from_highest_weight(cls, lam: int) -> "IrrepData":
        if lam < 0:
            raise ValueError("lambda must be a non-negative integer")
        n = 2 * lam + 1
        c = [Fraction(0)] * (n + 1)
        for j in range(n):
            c[j + 1] = Fraction(-lam + j) - c[j]
        # x_{-alpha}: u_j -> u_{j+1};  x_alpha: u_j -> c_j u_{j-1}, c_j != 0
        lower = [{j + 1: 1} if j + 1 < n else {} for j in range(n)]
        raise_ = [{j - 1: c[j]} if j else {} for j in range(n)]
        h = [{j: j - lam} if j != lam else {} for j in range(n)]
        return cls._from_odd(lam, lower, raise_, h)

    @classmethod
    def standard(cls) -> "IrrepData":
        """C^{1|2}: basis v_0 (even), v_1, v_2 (odd)."""
        lower = [{1: 1}, {}, {0: 1}]
        raise_ = [{2: -1}, {0: 1}, {}]
        h = [{}, {1: 1}, {2: -1}]
        return cls._from_odd(1, lower, raise_, h)

    @classmethod
    def _from_odd(cls, lam: int, lower, raise_, h) -> "IrrepData":
        """V(lambda) from the maps of x_{-alpha}, x_alpha and h, with the even
        root vectors as the odd squares x_{2 alpha} = -x_alpha^2 and
        x_{-2 alpha} = x_{-alpha}^2; the relations are validated."""
        mats = {
            -1: lower,
            1: raise_,
            0: h,
            -2: [_apply(lower, u) for u in lower],
            2: [_apply(raise_, u, -1) for u in raise_],
        }
        rep = cls(lam, mats)
        rep.validate()
        return rep

    def validate(self):
        """All nine supercommutator relations, checked on each basis vector:
        a (b u) -+ b (a u) minus the bracket table's [a, b] u vanishes."""
        m = self.matrices
        for j in Z_ROOTS:
            for k in Z_ROOTS:
                ba_sign = 1 if (abs(j) == 1 and abs(k) == 1) else -1
                bracket = _base_bracket(j, k)
                for u in range(self.dimension):
                    acc = _apply(m[j], m[k][u])
                    _apply(m[k], m[j][u], ba_sign, acc)
                    for label, coeff in bracket.items():
                        _apply(m[label], {u: 1}, -coeff, acc)
                    if any(acc.values()):
                        raise AssertionError(f"bracket [{j}, {k}] fails for lambda={self.lam}")


# ---------------------------------------------------------------------------
# The odd polynomial module and the tensor module


@dataclass(frozen=True)
class PolyModule:
    """C[x] with x odd, truncated at degree N, in the basis y_k = x^k / sqrt(2)^k.

    x_alpha acts as (1/sqrt 2) d/dx and x_{-alpha} as (1/sqrt 2) x, so that
    x_{-alpha} y_k = y_{k+1} and x_alpha y_k = (k/2) y_{k-1}; the even root
    vectors are the corresponding odd squares, and h follows from
    [x_alpha, x_{-alpha}] = h: the eigenvalue on y_k is k + 1/2.
    """

    trunc: int

    def h_eigenvalue(self, k: int) -> Fraction:
        return Fraction(2 * k + 1, 2)

    def act(self, root: int, k: int) -> tuple[int, int | Fraction]:
        """Image of y_k under the root-`root` generator: (degree, scalar)."""
        if root == 1:
            return k - 1, Fraction(k, 2)
        if root == -1:
            if k + 1 > self.trunc:
                raise TruncationOverflow(f"degree {k + 1} exceeds truncation {self.trunc}")
            return k + 1, 1
        if root == 2:  # -x_alpha^2 = -(1/2) d^2/dx^2
            return k - 2, Fraction(-k * (k - 1), 4)
        if root == -2:  # x_{-alpha}^2 = (1/2) x^2
            if k + 2 > self.trunc:
                raise TruncationOverflow(f"degree {k + 2} exceeds truncation {self.trunc}")
            return k + 2, 1
        if root == 0:
            return k, self.h_eigenvalue(k)
        raise ValueError(f"unknown root {root}")


def weight_window(low: Fraction, high: Fraction) -> list[Fraction]:
    """low, low + 1, ... up to high."""
    return [low + k for k in range((high - low) // 1 + 1)]


class ModuleVector(LinComb):
    """Element of C[x] (x) V(lambda): rational coordinates on basis tensors
    y_k (x) v_i, keyed (k, i).  The elimination also keys it otherwise:
    raising images tagged by generator, and coordinates on a basis by
    position."""

    __slots__ = ()
    coerce = staticmethod(_rational)

    @classmethod
    def basis(cls, k: int, i: int) -> "ModuleVector":
        return cls({(k, i): 1})

    def __repr__(self):
        return _tensor_text(self.terms, "y")


def _tensor_text(coords: dict, var: str) -> str:
    bits = [f"({c}) {var}^{k}*v{i}" for (k, i), c in sorted(coords.items())]
    return "ModuleVector(" + " + ".join(bits or ["0"]) + ")"


def x_basis_text(v: ModuleVector) -> str:
    """A nonzero vector as published, on the tensors x^k (x) v_i: scaled to 1
    at its tensor of largest v index, where `eliminate` puts the 1 of a
    primitive vector, the coordinate c of y_k (x) v_i is c sqrt(2)^(k0 - k)
    on x^k (x) v_i, printed as q or q*sqrt2."""
    (k0, _), c0 = max(v.terms.items(), key=lambda t: t[0][1])
    texts = {}
    for (k, i), c in v.terms.items():
        q = Fraction(c) / c0 * Fraction(2) ** ((k0 - k) // 2)
        root = "sqrt2" if abs(q) == 1 else f"{abs(q)}*sqrt2"
        texts[k, i] = (root if q > 0 else f"-{root}") if (k0 - k) % 2 else q
    return _tensor_text(texts, "x")


def act_sum(element, act_letter, act_coeff, v: ModuleVector) -> ModuleVector:
    """Action of a sum of monomials with left coefficients: the letters of
    each monomial right to left through act_letter(g, w), then its
    coefficient through act_coeff(f, w)."""
    total = ModuleVector()
    for mono, coeff in element:
        w = v
        for g in reversed(mono.letters()):
            w = act_letter(g, w)
            if not w:
                break
        if w:
            total = total + act_coeff(coeff, w)
    return total


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
    def act(self, g: int, v: ModuleVector) -> ModuleVector:
        """Action of one generator of U (by index): a (x) 1 + 1 (x) a on the
        diagonal copy, a (x) 1 - 1 (x) a on the anti-diagonal one, whose
        root-0 generator th is h (x) 1 - 1 (x) h."""
        info = GENERATORS[g]
        images = self.irrep.matrices[info.root]
        out: dict = {}
        for (k, i), c in v.terms.items():
            k2, s = self.poly.act(info.root, k)
            if k2 >= 0 and s:
                key = (k2, i)
                out[key] = out[key] + c * s if key in out else c * s
            # 1 (x) a: the sign (-1)^{|a| k}, times -1 on the anti-diagonal copy
            if bool(info.odd and k % 2) == info.diagonal:
                c = -c
            for i2, s in images[i].items():
                key = (k, i2)
                out[key] = out[key] + c * s if key in out else c * s
        return ModuleVector(out)

    def act_coeff(self, f: RationalFunction, v: ModuleVector) -> ModuleVector:
        """f(H) acting by evaluation on H-eigencomponents (off-pole: the
        weights are in 1/2 + Z)."""
        return ModuleVector({b: c * f.eval(self.weight(*b)) for b, c in v.terms.items()})

    def act_uea(self, u: UeaElement, v: ModuleVector) -> ModuleVector:
        """Action of a normal-ordered element: letters right to left, the
        left coefficient last."""
        return act_sum(u, self.act, self.act_coeff, v)

    # -- primitive vectors and the reduction-algebra action ------------
    def is_primitive(self, v: ModuleVector) -> bool:
        return not self.act(X1, v) and not self.act(X2, v)

    def primitive_vectors(self, weights) -> list[ModuleVector]:
        """Basis of the primitive subspace, weight by weight: the null
        sources of one elimination over the basis tensors b, each paired
        with its X(1) and X(2) images tagged by generator."""
        out: list[ModuleVector] = []
        for mu in weights:
            pairs = []
            for k, i in self.basis_of_weight(Fraction(mu)):
                b = ModuleVector.basis(k, i)
                image = {(g, key): c for g in (X1, X2) for key, c in self.act(g, b)}
                pairs.append((ModuleVector(image), b))
            out.extend(eliminate(pairs)[1])
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

        return act_sum(z, act_letter, self.act_coeff, v)

    def rho_matrix(self, z: ZElement, basis: list[ModuleVector]):
        """Matrix of the z-action on the span of `basis` (columns act on
        basis vectors; rational entries): each image reduced against
        the pivots of the basis, NotPrimitive if a remainder is left."""
        pivots, _ = eliminate((b, ModuleVector({j: 1})) for j, b in enumerate(basis))
        out = [[0] * len(basis) for _ in basis]
        for j, b in enumerate(basis):
            rest, source = reduce_vector(self.act_z(z, b), ModuleVector(), pivots)
            if rest:
                raise NotPrimitive("image left the primitive span")
            for i, c in source.terms.items():
                out[i][j] = -c
        return out


# ---------------------------------------------------------------------------
# Relation checking on matrices


def check_rep_relations(rho: dict, eigen: list[Fraction]) -> dict:
    """Substitute generator matrices into every rewrite-rule family.

    `rho` maps z-generator index (0..4) to a rational matrix in an
    H-eigenbasis with eigenvalues `eigen`; f(H) becomes diag(f(mu_i)).  Each
    identity is checked on every coordinate vector, with each matrix turned
    into the sparse images of its columns once.
    """
    n = len(eigen)
    columns = {g: [{i: m[i][j] for i in range(n) if m[i][j]} for j in range(n)] for g, m in rho.items()}

    def letter(g, w):
        return ModuleVector(_apply(columns[g], w.terms))

    def coeff(f, w):
        return ModuleVector({i: c * f.eval(eigen[i]) for i, c in w.terms.items()})

    units = [ModuleVector({j: 1}) for j in range(n)]
    checks = []
    for a, b in RULE_KEYS:
        rule = derived_rule(a, b)
        ok = all(letter(a, letter(b, e)) == act_sum(rule, letter, coeff, e) for e in units)
        checks.append({"name": f"{Z_TOKENS[a]} {Z_TOKENS[b]}", "pass": ok})
    f = RationalFunction(1, H - 1)
    cartan = all(coeff(f, letter(2, e)) == letter(2, coeff(f, e)) for e in units)
    checks.append({"name": "f(H) E(0) commutation", "pass": cartan})
    shift_ok = all(
        letter(g, coeff(f, e)) == coeff(f.shift(Z_ROOTS[g]), letter(g, e)) for g in range(5) for e in units
    )
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
