"""The CSV writer's numbers: the bytes of ``%.17g`` for every double, on both
of its paths (the row template below ``_TABLE_FROM`` numbers a block, the
byte table from it on), and on the tables the CLI writes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayvar import cli, euler_lagrange
from delayvar.euler_lagrange import PathRecord, csv_text, residual_grids
from delayvar.problem import AugmentedSetup, augmented_integrand
from delayvar.registry import get

TABLE = euler_lagrange._TABLE_FROM


def _reference(header, blocks):
    """The table rendered cell by cell with ``%.17g``."""
    lines = [",".join(header)]
    for columns in blocks:
        cells = [col if isinstance(col, list) else ["%.17g" % v for v in np.asarray(col).tolist()]
                 for col in columns]
        pad = [""] * (len(header) - len(columns))
        lines += [",".join([*row, *pad]) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _one_column(values):
    """csv_text of one column, as its list of lines."""
    return csv_text(["x"], [np.asarray(values, dtype=float)]).split("\n")


def _lines(values):
    """The same from ``%.17g``.  Lists of lines: a failing comparison names the
    first differing row at once, where a diff of the whole text takes minutes."""
    return ["x", *("%.17g" % v for v in np.asarray(values, dtype=float).tolist()), ""]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_one_column_is_17_digit_format(values):
    # floats() draws NaN, infinities, subnormals and -0.0; the short column
    # takes the row template, the column repeated to TABLE numbers the table
    assert _one_column(values) == _lines(values)
    tiled = np.resize(np.array(values, dtype=float), TABLE)
    assert _one_column(tiled) == _lines(tiled)


def _edge_values():
    powers = []
    for k in range(-5, 18):
        v = 10.0 ** k
        powers += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    # exact halves of the 17th digit (half to even), and values whose
    # rounding carries through a run of nines
    ties = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375, 3006292.33544921875,
            26215 / 2 ** 18]
    carries = [0.0023, 0.023, 0.999, 1.7]
    values = np.array(powers + ties + carries)
    return np.concatenate([values, -values])


def test_edge_values_take_the_exact_path(monkeypatch):
    values = np.resize(_edge_values(), TABLE)
    by_percent = []
    printf = euler_lagrange._printf_cells

    def counting(v):
        by_percent.append(len(v))
        return printf(v)

    monkeypatch.setattr(euler_lagrange, "_printf_cells", counting)
    assert _one_column(values) == _lines(values)
    # the byte table ran, and only the powers 1e-5 and 1e17 and their
    # neighbours, and the values just below a power of ten that log10 rounds
    # up to it (their scaled digits come out as 18), went through `%`
    assert 0 < sum(by_percent) < len(values) / 2


@pytest.mark.parametrize("value, text", [
    (1e15 + 0.25, "1000000000000000.2"), (1e15 + 0.75, "1000000000000000.8"),
    (0.0023, "0.0023"), (1.7, "1.7"), (-0.0, "-0"), (0.0, "0"), (1e16, "10000000000000000"),
    (1e-4, "0.0001"), (123.0, "123"), (-2.5e-4, "-0.00025000000000000001"),
])
def test_known_texts_on_both_paths(value, text):
    assert _one_column([value]) == ["x", text, ""]
    assert _one_column(np.full(TABLE, value)) == ["x", *[text] * TABLE, ""]


def test_table_block_with_names_and_a_long_tail():
    # more than 8 missing columns: the tail does not fit the number's free bytes
    rng = np.random.default_rng(7)
    rows = TABLE
    names = rng.choice(["first", "second", "", "é"], rows).tolist()
    block = [rng.standard_normal(rows), names, rng.standard_normal(rows) * 1e-3]
    header = [f"c{i}" for i in range(12)]
    assert csv_text(header, block).split("\n") == _reference(header, [block]).split("\n")


def _example1():
    entry = get("example1")
    return AugmentedSetup(entry.build(), list(entry.lam)), entry.trajectory()


def test_residuals_file_is_the_record_in_17_digit_format(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["residuals", "--example", "example1", "--grid", "20000",
                     "--out", str(out)]) == 0
    setup, traj = _example1()
    problem, F = setup.problem, augmented_integrand(setup)
    blocks = []
    times, split = residual_grids(problem, traj, count=20000), problem.t2 - problem.tau
    for ts in (times[times < split], times[times > split]):
        record = PathRecord(F, problem, traj, ts)
        block = [record.ts, *record.psi[0].T, record.dr_quantity, record.dr_residual]
        if record.first.all():  # the first regime's grid: cdur(t) on every row
            block.append(record.cdur_advanced)
        blocks.append(block)
    header = ["t", "el_0", "dr_quantity", "dr_residual", "cdur"]
    assert out.read_text().split("\n") == _reference(header, blocks).split("\n")


def test_conserved_file_is_its_columns_in_17_digit_format(tmp_path, monkeypatch):
    written = []

    def spy(header, *blocks):
        written.append((header, blocks))
        return csv_text(header, *blocks)

    monkeypatch.setattr(cli, "csv_text", spy)
    out = tmp_path / "c.csv"
    assert cli.main(["conserved", "--example", "example1", "--eta", "1", "--xi", "0",
                     "--out", str(out)]) == 0
    (header, blocks), = written
    assert out.read_text().split("\n") == _reference(header, blocks).split("\n")
