"""Engine-wide helpers."""

from __future__ import annotations

import numpy as np


def hash_u64(values) -> "np.ndarray":
    """Vectorized, cross-process-deterministic 64-bit hash of a column.

    pandas ``hash_array`` (siphash, fixed key) — one C call per column
    instead of per-row ``zlib.crc32`` Python loops. Accepts a pyarrow
    Array/ChunkedArray, numpy array, or list; strings and ints both take
    the vectorized path.
    """
    import pandas as pd
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_pandas().to_numpy()
    else:
        values = np.asarray(values)
    return pd.util.hash_array(values, categorize=False)


def hash_partition(values, n_parts: int) -> "np.ndarray":
    """values → int32 partition ids in [0, n_parts) (coarse shuffle key)."""
    return (hash_u64(values) % np.uint64(n_parts)).astype(np.int32)


def vectors_2d(column, dtype=np.float32) -> "np.ndarray":
    """list<float> arrow column → (n, dim) matrix without a Python list hop.

    ``to_pylist()`` materializes every float as a PyObject; flattening the
    list array and reshaping is a single buffer copy. Assumes non-null,
    equal-length vectors (the embedding-table contract).
    """
    import pyarrow as pa

    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    n = len(column)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    flat = column.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, -1).astype(dtype, copy=False)


def to_arrow_type(t):
    """Normalize a Dataset schema type to pyarrow: pandas-block datasets
    report numpy dtypes (object → string)."""
    import pyarrow as pa

    if isinstance(t, pa.DataType):
        return t
    if np.dtype(t) == np.dtype("O"):
        return pa.string()
    return pa.from_numpy_dtype(t)
