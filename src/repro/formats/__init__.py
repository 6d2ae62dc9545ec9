"""Compression-format substrate.

Implements, from scratch, every lossless sparse format the paper discusses
(Fig. 3): Dense, COO, CSR, CSC, RLC, ZVC, BSR and DIA for matrices; Dense,
COO, CSF, HiCOO, RLC and ZVC for 3-D tensors.  Each class provides

* ``from_dense`` / ``to_dense`` encode/decode (bit-exact round trip); a
  matrix format's one encoder is ``from_coords``, which takes ascending
  row-major positions and their nonzero values, and its ``from_dense``
  finds a dense array's nonzeros and hands them to it,
* ``storage()`` returning the data/metadata bit accounting used by the
  compactness analysis (Sec. III-A), and
* ``fields()`` exposing the raw field arrays the MINT converter streams.
"""

from repro.formats.base import (
    MatrixFormat,
    StorageBreakdown,
    TensorFormat,
)
from repro.formats.bsr import BsrMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csc import CscMatrix
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix
from repro.formats.hicoo import HicooTensor
from repro.formats.registry import (
    Format,
    MATRIX_FORMATS,
    TENSOR_FORMATS,
    matrix_class,
)
from repro.formats.rlc import RlcMatrix
from repro.formats.tensor_coo import CooTensor
from repro.formats.tensor_dense import DenseTensor
from repro.formats.tensor_flat import RlcTensor, ZvcTensor
from repro.formats.zvc import ZvcMatrix

__all__ = [
    "Format",
    "MATRIX_FORMATS",
    "TENSOR_FORMATS",
    "MatrixFormat",
    "TensorFormat",
    "StorageBreakdown",
    "DenseMatrix",
    "CooMatrix",
    "CsrMatrix",
    "CscMatrix",
    "RlcMatrix",
    "ZvcMatrix",
    "BsrMatrix",
    "DiaMatrix",
    "EllMatrix",
    "DenseTensor",
    "CooTensor",
    "CsfTensor",
    "HicooTensor",
    "RlcTensor",
    "ZvcTensor",
    "matrix_class",
]
