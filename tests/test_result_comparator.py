"""The driver-contract result comparator (``ontocast_ray.parity``), Ray-free:
what it forgives (row order, datetime unit) and what it rejects."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from ontocast_ray.parity import compare_results


def _frame() -> pd.DataFrame:
    return pd.DataFrame({
        "id": np.array([3, 1, 2], dtype=np.int64),
        "score": [0.1, np.nan, 2.5],
        "tags": [["a", "b"], ["c"], []],
        "label": ["x", "y", None],
        "ts": pd.to_datetime(
            ["2024-01-01 00:00:01", "2024-01-02 00:00:00", "2024-01-03 12:00:00"]
        ).astype("datetime64[ns]"),
    })


def test_accepts_row_permutation_and_datetime_unit():
    want = _frame()
    got = want.iloc[[2, 0, 1]].reset_index(drop=True)
    got["ts"] = got["ts"].astype("datetime64[us]")
    assert compare_results(got, want) == "OK"


def _with(col: str, row: int, value) -> pd.DataFrame:
    df = _frame()
    df.at[row, col] = value
    return df


@pytest.mark.parametrize(
    "got, reason",
    [
        # floats are exact: no tolerance
        (_with("score", 0, 0.1 + 1e-12), "VALUES ['score']"),
        (_with("tags", 0, ["a", "c"]), "VALUES ['tags']"),
        # a null on one side only: float NaN and object None
        (_with("score", 2, np.nan), "VALUES ['score']"),
        (_with("label", 0, None), "VALUES ['label']"),
        (_frame().rename(columns={"label": "name"}), "SCHEMA"),
        (_frame().iloc[:2], "ROWS 2 vs 3"),
    ],
    ids=["float-1e-12", "list-cell", "float-null", "object-null",
         "column-name", "row-count"],
)
def test_rejects_with_reason(got, reason):
    assert compare_results(got, _frame()).startswith(reason)
