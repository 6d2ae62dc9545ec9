"""Format enumeration and class registry.

A single :class:`Format` enum names every compression format in the paper;
the registry maps a matrix format to its implementing class.  SAGE's
search spaces (:mod:`repro.sage.spaces`) and the baseline accelerator
policies (Table II) are expressed in terms of these enum members.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Type

from repro.errors import FormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.formats.base import MatrixFormat


class Format(Enum):
    """Every compression format discussed in the paper (Fig. 3)."""

    DENSE = "Dense"
    COO = "COO"
    CSR = "CSR"
    CSC = "CSC"
    RLC = "RLC"
    ZVC = "ZVC"
    BSR = "BSR"
    DIA = "DIA"
    CSF = "CSF"
    HICOO = "HiCOO"
    ELL = "ELL"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Formats implemented for 2-D operands.
MATRIX_FORMATS: tuple[Format, ...] = (
    Format.DENSE,
    Format.COO,
    Format.CSR,
    Format.CSC,
    Format.RLC,
    Format.ZVC,
    Format.BSR,
    Format.DIA,
    Format.ELL,
)

#: Formats implemented for 3-D operands.
TENSOR_FORMATS: tuple[Format, ...] = (
    Format.DENSE,
    Format.COO,
    Format.CSF,
    Format.HICOO,
    Format.RLC,
    Format.ZVC,
)


def matrix_class(fmt: Format) -> "Type[MatrixFormat]":
    """Return the matrix class implementing *fmt*."""
    # Imported lazily to avoid circular imports at package init.
    from repro.formats.bsr import BsrMatrix
    from repro.formats.coo import CooMatrix
    from repro.formats.csc import CscMatrix
    from repro.formats.csr import CsrMatrix
    from repro.formats.dense import DenseMatrix
    from repro.formats.dia import DiaMatrix
    from repro.formats.ell import EllMatrix
    from repro.formats.rlc import RlcMatrix
    from repro.formats.zvc import ZvcMatrix

    table: dict[Format, Type[MatrixFormat]] = {
        Format.DENSE: DenseMatrix,
        Format.COO: CooMatrix,
        Format.CSR: CsrMatrix,
        Format.CSC: CscMatrix,
        Format.RLC: RlcMatrix,
        Format.ZVC: ZvcMatrix,
        Format.BSR: BsrMatrix,
        Format.DIA: DiaMatrix,
        Format.ELL: EllMatrix,
    }
    try:
        return table[fmt]
    except KeyError:
        raise FormatError(f"{fmt} is not a matrix format") from None
