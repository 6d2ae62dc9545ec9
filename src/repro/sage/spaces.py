"""SAGE's search spaces (paper Sec. VII-A).

"For MCF, we consider six format choices for each operand: Dense, RLC, ZVC,
COO, CSR, and CSC.  For ACF, we consider four format choices for each
operand: Dense, COO, CSR, and CSC."

On the weight-stationary template the streamed operand can execute any of
the four ACFs while the stationary operand's buffer layout supports Dense
or CSC (Fig. 6's two buffer organizations) — which is also the only set
Table III's ACFf column ever uses.  For 3-D tensors the streamed ACFs are
Dense, COO and CSF (the Table III ACFt values).
"""

from __future__ import annotations

from itertools import product

from repro.formats.registry import Format

#: MCF candidates per matrix operand.
MATRIX_MCF: tuple[Format, ...] = (
    Format.DENSE,
    Format.RLC,
    Format.ZVC,
    Format.COO,
    Format.CSR,
    Format.CSC,
)

#: ACF candidates for the streamed matrix operand (A).
MATRIX_ACF_STREAMED: tuple[Format, ...] = (
    Format.DENSE,
    Format.COO,
    Format.CSR,
    Format.CSC,
)

#: ACF candidates for the stationary matrix operand (B).
MATRIX_ACF_STATIONARY: tuple[Format, ...] = (Format.DENSE, Format.CSC)

#: MCF candidates for the 3-D tensor operand.
TENSOR_MCF: tuple[Format, ...] = (
    Format.DENSE,
    Format.RLC,
    Format.ZVC,
    Format.COO,
    Format.CSF,
)

#: ACF candidates for the streamed 3-D tensor operand.
TENSOR_ACF: tuple[Format, ...] = (Format.DENSE, Format.COO, Format.CSF)

#: Output MCF candidates (the accelerator drains dense; compression before
#: store is a Dense -> MCF_O conversion, Sec. III-C).
OUTPUT_MCF: tuple[Format, ...] = (
    Format.DENSE,
    Format.COO,
    Format.CSR,
    Format.ZVC,
    Format.RLC,
)


FormatPair = tuple[Format, Format]


def matrix_grid(
    *,
    fixed_mcf: FormatPair | None = None,
    mcf_a: tuple[Format, ...] = MATRIX_MCF,
    mcf_b: tuple[Format, ...] = MATRIX_MCF,
    acf_a: tuple[Format, ...] = MATRIX_ACF_STREAMED,
    acf_b: tuple[Format, ...] = MATRIX_ACF_STATIONARY,
) -> tuple[tuple[FormatPair, ...], tuple[FormatPair, ...]]:
    """The matrix search space as a grid: (MCF pairs, ACF pairs).

    ``fixed_mcf`` implements the Sec. VI scenario where "the MCF is already
    predetermined by the programmer": SAGE then only searches ACFs.
    """
    if fixed_mcf is not None:
        mcf_a, mcf_b = (fixed_mcf[0],), (fixed_mcf[1],)
    return tuple(product(mcf_a, mcf_b)), tuple(product(acf_a, acf_b))


def tensor_grid(
    *,
    fixed_mcf: FormatPair | None = None,
    mcf_t: tuple[Format, ...] = TENSOR_MCF,
    mcf_f: tuple[Format, ...] = MATRIX_MCF,
    acf_t: tuple[Format, ...] = TENSOR_ACF,
    acf_f: tuple[Format, ...] = MATRIX_ACF_STATIONARY,
) -> tuple[tuple[FormatPair, ...], tuple[FormatPair, ...]]:
    """The tensor-kernel search space as a grid: (MCF pairs, ACF pairs)."""
    if fixed_mcf is not None:
        mcf_t, mcf_f = (fixed_mcf[0],), (fixed_mcf[1],)
    return tuple(product(mcf_t, mcf_f)), tuple(product(acf_t, acf_f))
