"""Checks of the layer predictions that a traced baseline can already confirm.

The full table of which end-to-end metric each per-layer metric should
move, and on which workload, is in README.md.
"""
from __future__ import annotations


def _lyapunov_s(layers: dict) -> float:
    return (layers["numerics.LyapunovSolver.init.self_s"]
            + layers["numerics.LyapunovSolver.solve.self_s"])


def _module_self_s(layers: dict) -> dict[str, float]:
    """Self time per module, with the Lyapunov solver counted on its own."""
    out: dict[str, float] = {}
    for key, value in layers.items():
        if not key.endswith(".self_s") or key == "cli.self_s":
            continue
        module = key.split(".")[0]
        if key.startswith("numerics.LyapunovSolver."):
            module = "numerics.LyapunovSolver"
        out[module] = out.get(module, 0.0) + value
    return out


def verdicts(workload: str, layers: dict) -> list[str]:
    """Check the predictions a traced baseline can confirm on ``workload``."""
    lyap = _lyapunov_s(layers)
    total = layers["trace.self_sum_s"]
    if workload == "chain_scaling":
        modules = _module_self_s(layers)
        top = max(modules, key=modules.get)
        ok = top == "numerics.LyapunovSolver"
        return [
            f"{'HOLDS' if ok else 'FAILS'}: Schur + Sylvester self time is the largest share "
            f"on chain_scaling ({lyap:.3f} s of {total:.3f} s = {lyap / total:.1%}; "
            f"largest module: {top})"
        ]
    if workload == "symbol_sweep":
        calls = (layers["numerics.LyapunovSolver.init.calls"]
                 + layers["numerics.LyapunovSolver.solve.calls"])
        ok = calls == 0 and lyap == 0.0
        return [
            f"{'HOLDS' if ok else 'FAILS'}: Schur and Sylvester are idle on symbol_sweep "
            f"({calls} calls, {lyap:.3f} s)"
        ]
    return []
