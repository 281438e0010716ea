"""Exact symbolic computation in the diagonal reduction algebra of osp(1|2).

The package provides:

- ``coeffs``: the coefficient field Q(H);
- ``engine``: the shared PBW monomial type (an exponent tuple in both
  algebras), sparse-sum type, bilinear product and rewriting step;
- ``uea``: PBW normal ordering (steps and the rewriting agenda) in the
  localized enveloping algebra of osp(1|2) x osp(1|2) with its
  diagonal / anti-diagonal generators;
- ``projector``: the extremal projector coefficients and the diamond product;
- ``zalgebra``: the reduction algebra — ordered monomials, the rewriting
  system, the oracle multiplication, the stated and derived rules, and the
  oracle sweep, which compares the two step tables;
- ``rep``: the polynomial-tensor-standard module and the induced matrix
  representation;
- ``text``: parsing and rendering (text / LaTeX / JSON);
- ``verify``: the verification suites behind ``ospz verify <suite>``;
- ``cli``: the ``ospz`` command-line entry point.
"""

from .coeffs import (
    H,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    as_rf,
)
from .uea import (
    GENERATORS,
    MixedParityError,
    UeaElement,
    commutator_table,
    mul,
    straighten,
    super_bracket,
    theta,
)
from .projector import diamond, kappa, phi, projected_generator
from .zalgebra import (
    ZElement,
    ZMonomial,
    catalog,
    derived_rule,
    step_sweep,
    tilde_to_z,
    z_multiply,
    z_oracle_multiply,
    z_straighten,
    z_theta,
    z_to_tilde,
)
from .rep import (
    IrrepData,
    ModuleVector,
    NotPrimitive,
    PolyModule,
    TensorModule,
    TruncationOverflow,
    WindowNotClosed,
    check_rep_relations,
    irreducibility_witness,
)
from .text import ExprSyntaxError, UnknownToken, parse_element, render
from .verify import SUITES, run_suite

__version__ = "0.1.0"
