"""A virtual reconfigurable logic fabric — the evolvable hardware itself.

A 4-input, 4-cell programmable logic block whose entire configuration fits
the GA core's 16-bit chromosome: each cell's nibble selects a two-input
Boolean function and an input pair.  Cells 0-1 read the primary inputs;
cells 2-3 can also read earlier cells, giving two logic levels — enough to
evolve nontrivial functions (parity, majority, comparators) while keeping
the configuration space exactly the core's search space.

Fault injection models radiation-induced resource failures: a faulty cell's
output is stuck, and the GA must *re-evolve around it* (the evolutionary
recovery experiment of Stoica et al. [27]).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fitness.base import FitnessFunction
from repro.fitness.ehw_targets import PackedFabric, popcount

#: Two-input cell functions selected by the low 2 bits of a cell's nibble.
CELL_FUNCTIONS: list[Callable[[int, int], int]] = [
    lambda a, b: a & b,  # 00: AND
    lambda a, b: a | b,  # 01: OR
    lambda a, b: a ^ b,  # 10: XOR
    lambda a, b: 1 - (a & b),  # 11: NAND
]

#: Input-pair choices per cell, selected by the high 2 bits of its nibble.
#: Sources 0-3 are the primary inputs; 4-5 are cells 0-1 (only legal for
#: cells 2-3; earlier cells wrap onto primary inputs).
_PAIR_CHOICES: list[list[tuple[int, int]]] = [
    [(0, 1), (1, 2), (2, 3), (0, 3)],  # cell 0
    [(0, 2), (1, 3), (0, 1), (2, 3)],  # cell 1
    [(4, 5), (4, 2), (5, 3), (0, 4)],  # cell 2
    [(4, 5), (5, 2), (4, 3), (1, 5)],  # cell 3 (output cell)
]

#: The same fabric as bit-parallel 16-bit truth-table words.
_PACKED = PackedFabric(4, _PAIR_CHOICES)


class VirtualFabric:
    """The reconfigurable block: configuration word -> Boolean function."""

    N_INPUTS = 4
    N_CELLS = 4

    def __init__(self) -> None:
        #: stuck-at faults per cell: None (healthy) or 0/1.
        self.faults: list[int | None] = [None] * self.N_CELLS

    # ------------------------------------------------------------------
    def inject_fault(self, cell: int, stuck_at: int) -> None:
        """Break a cell: its output is stuck regardless of configuration."""
        if not 0 <= cell < self.N_CELLS:
            raise ValueError(f"no such cell {cell}")
        self.faults[cell] = stuck_at & 1

    def heal_all(self) -> None:
        """Clear all injected faults (a fresh device)."""
        self.faults = [None] * self.N_CELLS

    # ------------------------------------------------------------------
    def evaluate(self, config: int, inputs: tuple[int, int, int, int]) -> int:
        """Output bit of the configured fabric for one input combination."""
        sources = list(inputs)  # indices 0-3
        for cell in range(self.N_CELLS):
            nibble = (config >> (4 * cell)) & 0xF
            func = CELL_FUNCTIONS[nibble & 0b11]
            pair = _PAIR_CHOICES[cell][(nibble >> 2) & 0b11]
            a = sources[pair[0]] if pair[0] < len(sources) else 0
            b = sources[pair[1]] if pair[1] < len(sources) else 0
            out = func(a, b)
            if self.faults[cell] is not None:
                out = self.faults[cell]
            sources.append(out)  # cell i becomes source 4 + i
        return sources[-1]

    def truth_table(self, config: int) -> int:
        """The configured function as a 16-bit truth table (bit i = output
        for input combination i = {d,c,b,a})."""
        table = 0
        for combo in range(16):
            bits = tuple((combo >> k) & 1 for k in range(self.N_INPUTS))
            table |= self.evaluate(config, bits) << combo
        return table


#: Target functions to evolve, as 16-entry truth tables (input index i has
#: bits a=i0, b=i1, c=i2, d=i3).
def _tt(fn: Callable[[int, int, int, int], int]) -> int:
    table = 0
    for combo in range(16):
        a, b, c, d = ((combo >> k) & 1 for k in range(4))
        table |= (fn(a, b, c, d) & 1) << combo
    return table


TARGET_FUNCTIONS: dict[str, int] = {
    "parity4": _tt(lambda a, b, c, d: a ^ b ^ c ^ d),
    "majority": _tt(lambda a, b, c, d: int(a + b + c + d >= 2)),
    "mux2": _tt(lambda a, b, c, d: b if a else c),
    "and4": _tt(lambda a, b, c, d: a & b & c & d),
    "xor2and": _tt(lambda a, b, c, d: (a ^ b) & (c | d)),
}


class FabricFitness(FitnessFunction):
    """Fitness of a fabric configuration: truth-table agreement with a
    target function, scaled into the 16-bit fit_value range.

    Each matching row of the 16-row truth table is worth 4095, so a perfect
    configuration scores 65,520 — an intrinsic-EHW fitness with exactly the
    core's interface.
    """

    n_vars = 1

    def __init__(self, target: str | int, fabric: VirtualFabric | None = None):
        if isinstance(target, str):
            self.target_name = target
            self.target_table = TARGET_FUNCTIONS[target]
        else:
            self.target_name = f"tt{target:04X}"
            self.target_table = target & 0xFFFF
        self.fabric = fabric if fabric is not None else VirtualFabric()
        self.name = f"fabric:{self.target_name}"

    @property
    def perfect_score(self) -> int:
        return 16 * 4095

    def _tables_vectorised(self, configs: np.ndarray) -> np.ndarray:
        """Truth tables for many configurations at once (packed words;
        cross-checked against :meth:`VirtualFabric.truth_table` in tests)."""
        return _PACKED.tables(configs, self.fabric.faults)

    def evaluate_array(self, chromosomes: np.ndarray) -> np.ndarray:
        tables = self._tables_vectorised(np.asarray(chromosomes))
        mismatches = popcount(tables ^ np.uint64(self.target_table))
        return (16 - mismatches) * 4095

    def table(self) -> np.ndarray:
        """Cached full-space table (the fabric is only 65,536 configs)."""
        if self._table is None:
            self._table = super().table()
        return self._table

    def invalidate(self) -> None:
        """Drop the cached table after a fault changes the fabric."""
        self._table = None
