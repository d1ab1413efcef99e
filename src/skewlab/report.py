"""Typed tables and the claim-by-claim evidence reports.

Cells hold exact values (int, Fraction, bool, None, str, float). CSV output
uses RFC 4180 quoting with counts as decimal integers, rationals as "p/q",
booleans as "true"/"false" and None as the empty cell, so no cell loses
precision and each parses back from its column's type. JSON output
sorts keys and renders every integer as a decimal string so downstream
consumers never lose precision to floating point.
"""

from __future__ import annotations

import csv
import io
import json

from . import counting, sperner
from .record import Record
from .solver import EXACT_M_DEFAULT_CAP, exact_M

FORMATS = ("csv", "json", "markdown")


class Table(Record):
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple[object, ...], ...]) -> None:
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("row width does not match column count")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)


def _cell_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cell_json(value: object) -> object:
    if value is None or isinstance(value, (bool, float)):
        return value
    return str(value)


def render_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def render_json(table: Table) -> str:
    rows = [
        {col: _cell_json(v) for col, v in zip(table.columns, row)}
        for row in table.rows
    ]
    return json.dumps({"columns": list(table.columns), "rows": rows}, sort_keys=True) + "\n"


def render_markdown(table: Table) -> str:
    lines = [
        "| " + " | ".join(table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(_cell_text(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table)
    if fmt == "markdown":
        return render_markdown(table)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def theorem_table(max_n: int) -> Table:
    """Per-n evidence for the two-sided bracket on the extremal family size.

    The lower side compares 2^n - |C_n| against floor(2^(0.96 n)); the upper
    side compares f_n - m_n against ceil(2^(0.69 n)) where the antichain
    value is available. Both comparisons are exact because the left sides
    are integers.
    """
    columns = (
        "n",
        "outside_construction",
        "bound_0_96",
        "lower_ok",
        "fib_minus_antichain",
        "bound_0_69",
        "upper_ok",
    )
    if not 1 <= max_n <= counting.MAX_DP_LENGTH:
        raise ValueError(f"max_n must be in [1, {counting.MAX_DP_LENGTH}], got {max_n}")
    antichain = sperner.antichain_sizes(1, min(max_n, sperner.MAX_POSET_LENGTH))
    bounds = zip(counting.floor_pow2_upto(24, 25, max_n), counting.ceil_pow2_upto(69, 100, max_n))
    rows = []
    for n, (tail, (b96, b69)) in enumerate(zip(counting.tail_counts_upto(max_n), bounds), 1):
        outside = (1 << n) - tail
        if n <= len(antichain):
            deficit = counting.fibonacci_count(n) - antichain[n - 1]
            upper_ok: bool | None = deficit >= b69
        else:
            deficit = None
            upper_ok = None
        rows.append((n, outside, b96, outside <= b96, deficit, b69, upper_ok))
    return Table(columns, tuple(rows))


def summary_table(n_lo: int, n_hi: int) -> Table:
    """Headline quantities per n: Fibonacci count, antichain maximum,
    construction size, exact family maximum where computed, and the
    antichain-complement upper bound."""
    if n_lo < 1:
        raise ValueError(f"n must be in [1, {counting.MAX_DP_LENGTH}], got {n_lo}")
    if n_lo > n_hi:
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    columns = (
        "n",
        "fibonacci",
        "antichain_max",
        "construction_size",
        "exact_max",
        "upper_bound",
    )
    antichain = sperner.antichain_sizes(n_lo, min(n_hi, sperner.MAX_POSET_LENGTH))
    rows = []
    for n, c_n in enumerate(counting.tail_counts_upto(n_hi)[n_lo - 1:], n_lo):
        fib = counting.fibonacci_count(n)
        m_n = antichain[n - n_lo] if n - n_lo < len(antichain) else None
        exact = exact_M(n).size if n <= EXACT_M_DEFAULT_CAP else None
        upper = (1 << n) - (fib - m_n) if m_n is not None else None
        rows.append((n, fib, m_n, c_n, exact, upper))
    return Table(columns, tuple(rows))


class SandwichReport(Record):
    """The two-sided bracket on the exact skewincidence maximum at one n."""

    __slots__ = ("n", "construction_size", "exact_size", "upper_bound")

    @property
    def ok(self) -> bool:
        return self.construction_size <= self.exact_size <= self.upper_bound


def sandwich_check(n: int) -> SandwichReport:
    """Bracket exact_M(n) between the construction size and the
    antichain-complement bound 2^n - (f_n - m_n)."""
    if not 1 <= n <= EXACT_M_DEFAULT_CAP:
        raise ValueError(f"n must be in [1, {EXACT_M_DEFAULT_CAP}], got {n}")
    lower = counting.count_C(n)
    exact = exact_M(n).size
    upper = (1 << n) - (counting.fibonacci_count(n) - sperner.max_antichain(n).size)
    return SandwichReport(n, lower, exact, upper)
