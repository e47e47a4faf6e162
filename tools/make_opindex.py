"""Generate OPERATORS.md — the driver-contract index: every queries() entry
with its oracle type and the first line of its docstring. Run after adding
a query:  python tools/make_opindex.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    import __ray_entry__ as e

    qs = e.queries()
    goldens = set(e._GOLDEN_QUERIES)
    sql_gate_only = ", ".join(f"`{n}`" for n in sorted(e._GATE_SF_ONLY - goldens))
    lines = [
        "# Driver-contract operator index",
        "",
        "Auto-generated by `python tools/make_opindex.py` — one row per",
        "`queries()` entry. Oracle types: **SQL** = live DuckDB oracle",
        "(independent re-derivation), **golden** = pinned seed-deterministic",
        "parquet (regenerated by `tools/make_goldens.py`, anchored by",
        "property tests / reference-fixture replay).",
        "",
        "The driver checks #1–50 by position, so `queries()` order is frozen.",
        "Every SQL oracle and golden is checked by `tools/gate_sweep.py`",
        f"(sf0.01, all {len(qs)}), and every SQL oracle but {sql_gate_only}",
        "(exact only at sf0.01) by `tests/test_driver_contract.py` (sf0.001).",
        "",
        f"Total: {len(qs)} queries — "
        f"{len(qs) - len(goldens)} SQL, {len(goldens)} golden.",
        "",
        "| # | query | oracle | what it verifies |",
        "|---|---|---|---|",
    ]
    for i, (name, fn) in enumerate(qs.items(), 1):
        kind = "golden" if name in goldens else "SQL"
        doc = (fn.__doc__ or "").strip().splitlines()
        summary = doc[0].strip() if doc else ""
        lines.append(f"| {i} | `{name}` | {kind} | {summary} |")
    out = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "OPERATORS.md")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(qs)} queries -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
