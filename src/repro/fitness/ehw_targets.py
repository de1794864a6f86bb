"""Larger combinational EHW targets for the 32-bit scaled core (Fig. 6).

The 16-bit :class:`~repro.ehw.fabric.VirtualFabric` caps evolvable
functions at 4 inputs; the paper's Sec. III-D dual-core composition
doubles the chromosome to 32 bits without re-synthesis, and this module
supplies the matching substrate: :class:`WideFabric`, an 8-cell, 6-input
virtual reconfigurable block whose configuration is exactly one 32-bit
chromosome (8 cells x one 4-bit nibble).  Targets worth that genotype:

* ``mux6``  — the 6-input multiplexer ``out = d[s1s0]`` (2 select +
  4 data lines), the classic EHW benchmark;
* ``parity6`` — 6-input odd parity, the hardest 6-input function for
  two-level logic and a staple of the EHW literature.

Fitness is truth-table agreement over all 64 input combinations, each
match worth :data:`ROW_SCORE` — integer-exact, so zoo goldens pin it
bit-for-bit.  :class:`PackedFabric` computes all 64 rows at once as one
truth-table word per configuration.  :data:`FITNESS32_REGISTRY` exposes
the targets as plain ``fitness32(chromosome) -> int`` callables for
:class:`~repro.core.scaling.DualCoreGA32`, addressable from a
:class:`~repro.service.jobs.GARequest` via ``substrate="dual32"``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Fitness per matching truth-table row: 64 rows x 1023 = 65,472, inside
#: the 16-bit ``fit_value`` range Core1 stores.
ROW_SCORE = 1023

N_INPUTS = 6
N_CELLS = 8
N_ROWS = 1 << N_INPUTS

#: Input-pair choices per cell, selected by the high 2 bits.  Sources 0-5
#: are the primary inputs; 6.. are earlier cells, giving up to four logic
#: levels by cell 7 (the output cell).
_PAIR_CHOICES: list[list[tuple[int, int]]] = [
    [(0, 1), (2, 3), (4, 5), (0, 5)],          # cell 0
    [(0, 2), (1, 3), (2, 4), (3, 5)],          # cell 1
    [(0, 4), (1, 5), (0, 3), (1, 2)],          # cell 2
    [(6, 7), (6, 8), (7, 8), (2, 6)],          # cell 3
    [(6, 8), (7, 6), (8, 5), (3, 7)],          # cell 4
    [(9, 10), (9, 6), (10, 7), (4, 9)],        # cell 5
    [(9, 11), (10, 11), (11, 8), (5, 10)],     # cell 6
    [(11, 12), (10, 12), (9, 12), (8, 12)],    # cell 7 (output)
]


#: Two-input cell functions as truth-table word ops, selected by the low
#: 2 bits of each nibble (the same palette as the 16-bit fabric: AND / OR /
#: XOR / NAND); ``mask`` is the all-ones word, so NAND keeps the width.
_CELL_OPS: tuple[Callable, ...] = (
    lambda a, b, mask: a & b,
    lambda a, b, mask: a | b,
    lambda a, b, mask: a ^ b,
    lambda a, b, mask: (a & b) ^ mask,
)


class PackedFabric:
    """A feed-forward fabric of two-input cells, evaluated bit-parallel.

    Every input combination rides one truth-table word (the
    64-patterns-per-word trick of :mod:`repro.hdl.bitsim`): primary input
    ``k`` is the constant word whose bit ``r`` is ``(r >> k) & 1``, each
    cell applies one bitwise op to the two source words its nibble picks
    (function = low 2 bits, input pair = high 2 bits), and the last cell's
    word is the fabric's truth table.  One instance serves the 32-bit
    :data:`WIDE_FABRIC` and the 16-bit :class:`~repro.ehw.fabric.VirtualFabric`.
    """

    def __init__(self, n_inputs: int, pair_choices: list[list[tuple[int, int]]]):
        n_rows = 1 << n_inputs
        self.pair_choices = pair_choices
        self.mask = (1 << n_rows) - 1
        self.inputs = [
            sum(((row >> k) & 1) << row for row in range(n_rows))
            for k in range(n_inputs)
        ]

    def table(self, config: int) -> int:
        """Truth table of one configuration, on Python ints (bits of
        ``config`` above the last cell's nibble are ignored)."""
        sources, mask = list(self.inputs), self.mask
        for cell, pairs in enumerate(self.pair_choices):
            nibble = (config >> (4 * cell)) & 0xF
            i, j = pairs[nibble >> 2]
            sources.append(_CELL_OPS[nibble & 0b11](sources[i], sources[j], mask))
        return sources[-1]

    def tables(self, configs: np.ndarray, faults: Sequence = ()) -> np.ndarray:
        """``uint64`` truth tables of many configurations at once.

        ``faults[cell]`` (``None``, 0 or 1) sticks that cell's output word
        at all zeros or all ones, whatever its nibble says.
        """
        configs = np.asarray(configs).astype(np.int64)
        mask = np.uint64(self.mask)
        sources = [np.uint64(word) for word in self.inputs]
        for cell, pairs in enumerate(self.pair_choices):
            stuck = faults[cell] if faults else None
            if stuck is not None:
                sources.append(np.full(configs.shape, mask if stuck else 0, np.uint64))
                continue
            nibble = (configs >> (4 * cell)) & 0xF
            psel = nibble >> 2
            a = np.choose(psel, [sources[i] for i, _ in pairs])
            b = np.choose(psel, [sources[j] for _, j in pairs])
            sources.append(
                np.choose(nibble & 0b11, [op(a, b, mask) for op in _CELL_OPS])
            )
        return sources[-1]


#: Set bits of every byte value, for :func:`popcount`.
_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each ``uint64`` word, as ``int64`` (a byte-table
    lookup over a ``uint8`` view; ``np.bitwise_count`` needs numpy 2)."""
    words = np.asarray(words, dtype=np.uint64)
    per_byte = _BYTE_POPCOUNT[words.ravel().view(np.uint8)]
    return per_byte.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.int64)


#: The 8-cell, 6-input fabric one 32-bit chromosome configures.
WIDE_FABRIC = PackedFabric(N_INPUTS, _PAIR_CHOICES)


def truth_tables(configs: np.ndarray) -> np.ndarray:
    """64-bit truth tables of many 32-bit configurations at once.

    Bit ``i`` of a table is the fabric output for input combination ``i``
    (input ``k`` = bit ``k`` of ``i``).
    """
    return WIDE_FABRIC.tables(configs)


def _target_table(fn: Callable[..., int]) -> int:
    table = 0
    for row in range(N_ROWS):
        bits = tuple((row >> k) & 1 for k in range(N_INPUTS))
        table |= (fn(*bits) & 1) << row
    return table


#: Target functions as 64-row truth tables.  mux6 input order:
#: (s0, s1, d0, d1, d2, d3); parity6 is odd parity over all six lines.
TARGET_TABLES: dict[str, int] = {
    "mux6": _target_table(
        lambda s0, s1, d0, d1, d2, d3: (d0, d1, d2, d3)[(s1 << 1) | s0]
    ),
    "parity6": _target_table(lambda *bits: sum(bits) & 1),
}

PERFECT_SCORE = N_ROWS * ROW_SCORE


def evaluate32_array(target: str, configs: np.ndarray) -> np.ndarray:
    """Vectorised fitness of 32-bit configurations against a target."""
    mismatches = popcount(truth_tables(configs) ^ np.uint64(TARGET_TABLES[target]))
    return (N_ROWS - mismatches) * ROW_SCORE


def _make_fitness32(target: str) -> Callable[[int], int]:
    target_table = TARGET_TABLES[target]

    def fitness32(chromosome: int) -> int:
        mismatches = bin(WIDE_FABRIC.table(chromosome) ^ target_table).count("1")
        return (N_ROWS - mismatches) * ROW_SCORE

    fitness32.__name__ = f"fabric32_{target}"
    return fitness32


#: 32-bit objectives by name, for ``GARequest(substrate="dual32")`` and
#: :class:`~repro.core.scaling.DualCoreGA32` directly.
FITNESS32_REGISTRY: dict[str, Callable[[int], int]] = {
    f"fabric32_{target}": _make_fitness32(target) for target in TARGET_TABLES
}
