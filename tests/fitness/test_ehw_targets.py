"""The packed EHW evaluator against the per-row evaluators it replaced.

The oracle below is the per-row ``np.select`` evaluator the 32-bit fabric
used before fitness moved to packed truth-table words, kept verbatim: for
each of the 64 input rows it walks the 8 cells one bit at a time.  The
16-bit fabric is checked against :meth:`VirtualFabric.truth_table`, the
scalar per-row model, over its whole configuration space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ehw.fabric import TARGET_FUNCTIONS, FabricFitness, VirtualFabric
from repro.fitness.ehw_targets import (
    _PAIR_CHOICES,
    FITNESS32_REGISTRY,
    N_CELLS,
    N_INPUTS,
    N_ROWS,
    ROW_SCORE,
    TARGET_TABLES,
    WIDE_FABRIC,
    evaluate32_array,
    popcount,
    truth_tables,
)

MASK32 = 0xFFFFFFFF


# -- oracle: the per-row np.select evaluator, verbatim --------------------
def _cell_out(fsel: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.select(
        [fsel == 0, fsel == 1, fsel == 2, fsel == 3],
        [a & b, a | b, a ^ b, 1 - (a & b)],
    )


def oracle_truth_tables(configs: np.ndarray) -> np.ndarray:
    """64-bit truth tables of many 32-bit configurations at once.

    Bit ``i`` of a table is the fabric output for input combination ``i``
    (input ``k`` = bit ``k`` of ``i``).
    """
    configs = np.asarray(configs).astype(np.int64)
    n = configs.shape
    tables = np.zeros(n, dtype=np.uint64)
    for row in range(N_ROWS):
        sources = [
            np.full(n, (row >> k) & 1, dtype=np.int64) for k in range(N_INPUTS)
        ]
        for cell in range(N_CELLS):
            nibble = (configs >> (4 * cell)) & 0xF
            fsel = nibble & 0b11
            psel = (nibble >> 2) & 0b11
            a = np.zeros(n, dtype=np.int64)
            b = np.zeros(n, dtype=np.int64)
            for p, pair in enumerate(_PAIR_CHOICES[cell]):
                mask = psel == p
                a[mask] = sources[pair[0]][mask]
                b[mask] = sources[pair[1]][mask]
            sources.append(_cell_out(fsel, a, b))
        tables |= sources[-1].astype(np.uint64) << np.uint64(row)
    return tables


def _popcount64(words: np.ndarray) -> np.ndarray:
    counts = np.zeros(words.shape, dtype=np.int64)
    for k in range(N_ROWS):
        counts += ((words >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
    return counts


def oracle_fitness(target: str, tables: np.ndarray) -> np.ndarray:
    """Fitness from oracle truth tables (``evaluate32_array``'s formula)."""
    mismatches = _popcount64(tables ^ np.uint64(TARGET_TABLES[target]))
    return (N_ROWS - mismatches) * ROW_SCORE


# -- 32-bit fabric ---------------------------------------------------------
def _edge_configs() -> list[int]:
    """0, all ones, and every nibble in every cell over three backgrounds."""
    configs = [0, MASK32]
    for base in (0, MASK32, 0x9E3779B9):
        for cell in range(N_CELLS):
            for nibble in range(16):
                shift = 4 * cell
                configs.append((base & ~(0xF << shift) & MASK32) | (nibble << shift))
    return configs


def _assert_matches_oracle(chromosomes: list[int]) -> None:
    masked = np.asarray([c & MASK32 for c in chromosomes], dtype=np.int64)
    expected = oracle_truth_tables(masked)
    wide = np.asarray([c & (2**63 - 1) for c in chromosomes], dtype=np.int64)
    tables = truth_tables(wide)
    assert tables.dtype == np.uint64
    np.testing.assert_array_equal(tables, expected)
    assert [WIDE_FABRIC.table(c) for c in chromosomes] == expected.tolist()
    for target in TARGET_TABLES:
        fitness = oracle_fitness(target, expected)
        got = evaluate32_array(target, wide)
        assert got.dtype == fitness.dtype
        np.testing.assert_array_equal(got, fitness)
        fitness32 = FITNESS32_REGISTRY[f"fabric32_{target}"]
        assert [fitness32(c) for c in chromosomes] == fitness.tolist()


def test_registry_names():
    assert set(FITNESS32_REGISTRY) == {"fabric32_mux6", "fabric32_parity6"}
    for name, fn in FITNESS32_REGISTRY.items():
        assert fn.__name__ == name


def test_edge_configurations_match_oracle():
    _assert_matches_oracle(_edge_configs())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, MASK32), min_size=1, max_size=32))
def test_32_bit_chromosomes_match_oracle(chromosomes):
    _assert_matches_oracle(chromosomes)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**80), min_size=1, max_size=8))
def test_wider_chromosomes_are_masked_to_32_bits(chromosomes):
    _assert_matches_oracle(chromosomes)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=16))
def test_popcount_matches_bit_loop(words):
    array = np.asarray(words, dtype=np.uint64)
    np.testing.assert_array_equal(popcount(array), _popcount64(array))
    assert popcount(array).tolist() == [bin(w).count("1") for w in words]


def test_popcount_keeps_shape():
    assert popcount(np.uint64(2**64 - 1)).shape == ()
    assert int(popcount(np.uint64(2**64 - 1))) == 64
    grid = np.arange(12, dtype=np.uint64).reshape(3, 4)
    np.testing.assert_array_equal(popcount(grid.T), _popcount64(grid.T))
    np.testing.assert_array_equal(popcount(grid[:, ::2]), _popcount64(grid[:, ::2]))


# -- 16-bit fabric ---------------------------------------------------------
ALL_16 = np.arange(1 << 16, dtype=np.uint32)


def _reference_fitness(fabric: VirtualFabric, target: str, tables: np.ndarray):
    target_table = TARGET_FUNCTIONS[target]
    mismatches = [bin(int(t) ^ target_table).count("1") for t in tables]
    return (16 - np.asarray(mismatches, dtype=np.int64)) * 4095


def test_16_bit_healthy_matches_virtual_fabric_exhaustively():
    fabric = VirtualFabric()
    fit = FabricFitness("parity4", fabric)
    reference = np.asarray([fabric.truth_table(c) for c in range(1 << 16)])
    np.testing.assert_array_equal(fit._tables_vectorised(ALL_16), reference)
    np.testing.assert_array_equal(
        fit.evaluate_array(ALL_16), _reference_fitness(fabric, "parity4", reference)
    )


@pytest.mark.parametrize("stuck_at", [0, 1])
@pytest.mark.parametrize("cell", range(VirtualFabric.N_CELLS))
def test_16_bit_stuck_cell_matches_virtual_fabric_exhaustively(cell, stuck_at):
    # A stuck cell ignores its own nibble, so the reference walks the 4,096
    # configurations of the other three cells and is compared against all
    # 65,536 packed tables, one per value of the stuck cell's nibble.
    fabric = VirtualFabric()
    fabric.inject_fault(cell, stuck_at)
    fit = FabricFitness("majority", fabric)
    shift = 4 * cell
    others = [c for c in range(1 << 16) if not (c >> shift) & 0xF]
    reference = {c: fabric.truth_table(c) for c in others}
    expected = np.asarray(
        [reference[c & ~(0xF << shift)] for c in range(1 << 16)]
    )
    np.testing.assert_array_equal(fit._tables_vectorised(ALL_16), expected)
    np.testing.assert_array_equal(
        fit.evaluate_array(ALL_16), _reference_fitness(fabric, "majority", expected)
    )


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 0xFFFF),
    st.lists(st.sampled_from([None, 0, 1]), min_size=4, max_size=4),
)
def test_16_bit_any_fault_set_matches_virtual_fabric(config, faults):
    fabric = VirtualFabric()
    for cell, stuck_at in enumerate(faults):
        if stuck_at is not None:
            fabric.inject_fault(cell, stuck_at)
    fit = FabricFitness("mux2", fabric)
    assert int(fit._tables_vectorised(np.asarray([config]))[0]) == fabric.truth_table(
        config
    )
