"""Format-flexibility policies of the evaluated accelerators (Table II).

Every accelerator in the evaluation runs on the *same* fabric (16384 MACs,
512 B/PE, 512-bit bus — Sec. VII-A); what distinguishes them is which MCFs
and ACFs they may use and how conversions happen.  A policy is therefore a
constraint on SAGE's search space plus a conversion provider:

=================  ==========================  ==========================  =========
Design (Table I)   MCF (A-B)                   ACF (A-B)                   Converter
=================  ==========================  ==========================  =========
Fix Fix None       Dense-Dense                 Dense-Dense                 none (TPU)
Fix Fix None2      CSR-Dense / Dense-CSC       same as MCF                 none (EIE)
Fix Flex HW        ZVC-ZVC                     CSR-Dense / Dense-CSC /     HW (SIGMA)
                                               Dense-Dense
Flex Flex None     (CSR/Dense)-(Dense/CSC)     must equal MCF              none (ExTensor)
Flex Fix HW        (ZVC/Dense)-(ZVC/Dense)     Dense-Dense                 HW (NVDLA)
Flex Flex SW       any                         any                         host SW (MKL /
                                                                           cuSPARSE)
Flex Flex HW       any                         any                         MINT (this work)
=================  ==========================  ==========================  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator

from repro.formats.registry import Format
from repro.sage.spaces import (
    MATRIX_ACF_STATIONARY,
    MATRIX_ACF_STREAMED,
    MATRIX_MCF,
)

F = Format


class ConverterKind(Enum):
    """How (and where) a policy converts between MCF and ACF."""

    NONE = "none"  # MCF must equal ACF
    HW = "hw"  # on-accelerator converter (MINT-class)
    SW = "sw"  # host library + PCIe round trip


@dataclass(frozen=True)
class AcceleratorPolicy:
    """One Table II row: allowed format pairs and the conversion mechanism."""

    name: str
    category: str
    mcf_pairs: tuple[tuple[Format, Format], ...]
    acf_pairs: tuple[tuple[Format, Format], ...]
    converter: ConverterKind
    reference: str = ""
    #: Whether the design's PEs skip zero-valued operands (TPU and NVDLA
    #: compute on zeros; sparse accelerators and this work do not).
    zero_skipping: bool = True

    def candidates(
        self,
    ) -> Iterator[tuple[tuple[Format, Format], tuple[Format, Format]]]:
        """All (MCF pair, ACF pair) combinations the policy admits."""
        for mcf, acf in product(self.mcf_pairs, self.acf_pairs):
            if self.converter is ConverterKind.NONE and mcf != acf:
                continue
            yield mcf, acf


def _pairs(*items: tuple[Format, Format]) -> tuple[tuple[Format, Format], ...]:
    return tuple(items)


_FULL_MCF = tuple(product(MATRIX_MCF, MATRIX_MCF))
_FULL_ACF = tuple(product(MATRIX_ACF_STREAMED, MATRIX_ACF_STATIONARY))

TPU_POLICY = AcceleratorPolicy(
    name="Fix_Fix_None",
    category="Fix Fix None",
    mcf_pairs=_pairs((F.DENSE, F.DENSE)),
    acf_pairs=_pairs((F.DENSE, F.DENSE)),
    converter=ConverterKind.NONE,
    reference="TPUv1 [4]",
    zero_skipping=False,
)

EIE_POLICY = AcceleratorPolicy(
    name="Fix_Fix_None2",
    category="Fix Fix None",
    mcf_pairs=_pairs((F.CSR, F.DENSE), (F.DENSE, F.CSC)),
    acf_pairs=_pairs((F.CSR, F.DENSE), (F.DENSE, F.CSC)),
    converter=ConverterKind.NONE,
    reference="EIE [14]",
)

SIGMA_POLICY = AcceleratorPolicy(
    name="Fix_Flex_HW",
    category="Fix Flex HW",
    mcf_pairs=_pairs((F.ZVC, F.ZVC)),
    acf_pairs=_pairs(
        (F.CSR, F.DENSE), (F.DENSE, F.CSC), (F.DENSE, F.DENSE)
    ),
    converter=ConverterKind.HW,
    reference="SIGMA [19]",
)

EXTENSOR_POLICY = AcceleratorPolicy(
    name="Flex_Flex_None",
    category="Flex Flex None",
    mcf_pairs=tuple(product((F.CSR, F.DENSE), (F.DENSE, F.CSC))),
    acf_pairs=tuple(product((F.CSR, F.DENSE), (F.DENSE, F.CSC))),
    converter=ConverterKind.NONE,
    reference="ExTensor [5]",
)

NVDLA_POLICY = AcceleratorPolicy(
    name="Flex_Fix_HW",
    category="Flex Fix HW",
    mcf_pairs=tuple(product((F.ZVC, F.DENSE), (F.ZVC, F.DENSE))),
    acf_pairs=_pairs((F.DENSE, F.DENSE)),
    converter=ConverterKind.HW,
    reference="NVDLA [22]",
    zero_skipping=False,
)

SW_POLICY = AcceleratorPolicy(
    name="Flex_Flex_SW",
    category="Flex Flex SW",
    mcf_pairs=_FULL_MCF,
    acf_pairs=_FULL_ACF,
    converter=ConverterKind.SW,
    reference="Intel MKL / cuSPARSE",
)

THIS_WORK_POLICY = AcceleratorPolicy(
    name="Flex_Flex_HW",
    category="Flex Flex HW",
    mcf_pairs=_FULL_MCF,
    acf_pairs=_FULL_ACF,
    converter=ConverterKind.HW,
    reference="This work (MINT + SAGE)",
)

#: Table II, in its printed order.
ALL_POLICIES: tuple[AcceleratorPolicy, ...] = (
    TPU_POLICY,
    EIE_POLICY,
    SIGMA_POLICY,
    EXTENSOR_POLICY,
    NVDLA_POLICY,
    SW_POLICY,
    THIS_WORK_POLICY,
)
