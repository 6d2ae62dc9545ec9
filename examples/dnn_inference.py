#!/usr/bin/env python3
"""DNN case study: pruned ResNet-50 convolution layers (the paper's Fig. 14).

Lowers the eight published convolution layers to im2col GEMMs under three
pruning regimes, lets SAGE choose formats per layer (one batched
``Session.predict`` over the whole stack), and compares against the
Table II baselines.  Demonstrates the paper's Sec. VII-D observations:

* early layers are activation-dominated, so weight pruning barely moves
  their EDP;
* heavily-pruned late layers (7-8 under global pruning) gain from CSC
  weight buffers and compressed weight MCFs;
* a format-flexible accelerator beats every fixed-format baseline on the
  suite average.

Run: ``python examples/dnn_inference.py``
(set ``REPRO_EXAMPLE_SMOKE=1`` for a two-layer, one-strategy subset)
"""

from __future__ import annotations

import os

from repro import CONV_LAYERS, PruningStrategy, Session, evaluate_all, layer_gemm

SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def main() -> None:
    layers = CONV_LAYERS[:2] if SMOKE else CONV_LAYERS
    strategies = (
        [PruningStrategy.GLOBAL_70] if SMOKE else list(PruningStrategy)
    )
    session = Session()

    print("=== Per-layer SAGE decisions under 70% global pruning ===")
    print(f"{'layer':>6} {'GEMM (MxKxN)':>22} {'w.sparsity':>10} | MCF(A,B) -> ACF(A,B)")
    workloads = [
        layer_gemm(layer, PruningStrategy.GLOBAL_70) for layer in layers
    ]
    decisions = session.predict(workloads)  # one batched call
    for layer, wl, d in zip(layers, workloads, decisions):
        _act, w_sp = layer.sparsities(PruningStrategy.GLOBAL_70)
        print(
            f"conv{layer.layer_id:>2} {f'{wl.m}x{wl.k}x{wl.n}':>22} "
            f"{w_sp:>9.1%} | "
            f"({d.mcf[0].value},{d.mcf[1].value}) -> "
            f"({d.acf[0].value},{d.acf[1].value})"
        )

    print()
    print("=== EDP per layer and pruning strategy (this work) ===")
    print(f"{'layer':>6} " + " ".join(f"{s.value:>20}" for s in strategies))
    totals: dict[str, float] = {}
    for layer in layers:
        row = [f"conv{layer.layer_id:>2}"]
        for strategy in strategies:
            results = evaluate_all(layer_gemm(layer, strategy))
            row.append(f"{results['Flex_Flex_HW'].edp:>20.3e}")
            for name, r in results.items():
                totals[name] = totals.get(name, 0.0) + r.edp
        print(" ".join(row))

    print()
    print("=== Average EDP vs hardware baselines (paper Fig. 14c) ===")
    ours = totals["Flex_Flex_HW"]
    for name, total in sorted(totals.items(), key=lambda kv: kv[1]):
        marker = " <- this work" if name == "Flex_Flex_HW" else ""
        reduction = "" if name == "Flex_Flex_HW" else (
            f"  (ours {1 - ours / total:.0%} lower)"
        )
        print(f"  {name:>15}: {total:.3e}{reduction}{marker}")


if __name__ == "__main__":
    main()
