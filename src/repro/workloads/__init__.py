"""Workload definitions and generators.

* :mod:`repro.workloads.spec` — kernel/shape/nnz descriptors consumed by
  SAGE and the policy evaluator;
* :mod:`repro.workloads.synthetic` — seeded uniform-random sparse operand
  generators (the paper's own performance model assumes uniform-random
  placement, Sec. VI);
* :mod:`repro.workloads.suite` — the 13 Table III workloads with their
  exact published dimensions and nonzero counts;
* :mod:`repro.workloads.dnn` — the Fig. 14a ResNet-50/CIFAR-10 convolution
  layers with their published sparsities, lowered to GEMMs via im2col.
"""

from repro.workloads.dnn import CONV_LAYERS, ConvLayer, PruningStrategy, layer_gemm
from repro.workloads.spec import (
    Kernel,
    MatrixWorkload,
    TensorWorkload,
    workload_from_dict,
)
from repro.workloads.suite import (
    MATRIX_SUITE,
    TENSOR_SUITE,
    SuiteEntry,
    suite_by_name,
)
from repro.workloads.synthetic import random_sparse_coords, random_sparse_matrix

__all__ = [
    "Kernel",
    "MatrixWorkload",
    "TensorWorkload",
    "workload_from_dict",
    "random_sparse_coords",
    "random_sparse_matrix",
    "MATRIX_SUITE",
    "TENSOR_SUITE",
    "SuiteEntry",
    "suite_by_name",
    "CONV_LAYERS",
    "ConvLayer",
    "PruningStrategy",
    "layer_gemm",
]
