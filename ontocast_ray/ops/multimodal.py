"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Media arrives as opaque ``binary`` columns with typed metadata (the engine's
span model carries only ``media_ref``; this module is the stage that would
dereference and process payloads). Three backends per stage:

- ``"raw"`` — a REAL decode path, fully executable here: image payloads are
  uncompressed ``uint8 H×W×3`` buffers (the layout a decode fleet hands to
  a train-side pipeline); resize is a vectorized nearest-neighbor index
  take and features are real pixel statistics (channel means + a luminance
  histogram). Pure numpy, no library needed.
- ``"fake"`` — deterministic pseudo-outputs derived from payload bytes
  (plumbing/goldens for arbitrary payloads).
- ``"real"`` — raises NotImplementedError at the exact point the codec
  library call (PIL/librosa/av) would go; JPEG/PNG/Opus decode is the ONLY
  part this container cannot execute.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa

# Rows per map batch of the payload stages (small: payloads are large
# binaries). Read on the driver at call time.
_MEDIA_BATCH_ROWS = 16  # extract_media_features, resize_images
_FRAME_BATCH_ROWS = 8  # sample_frames

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),  # image | audio | video | table
        pa.field("payload", pa.binary()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ]
)

FEATURES_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("feature", pa.list_(pa.float32())),
        pa.field("feature_dim", pa.int32()),
        pa.field("payload_sha", pa.string()),
    ]
)


def synth_media_table(n: int = 64, seed: int = 9) -> pa.Table:
    """Deterministic fake media table for tests/benches. Image payloads
    are GENUINE raw uint8 H×W×3 buffers (consistent with their metadata
    dims) so the ``raw`` backend exercises real pixel math."""
    rng = np.random.RandomState(seed)
    refs, kinds, payloads, widths, heights, durations = [], [], [], [], [], []
    for i in range(n):
        kind = ["image", "audio", "video"][i % 3]
        refs.append(f"media://synth/{i}")
        kinds.append(kind)
        if kind == "image":
            w, h = int(rng.randint(8, 48)), int(rng.randint(8, 48))
            payloads.append(rng.bytes(w * h * 3))
            widths.append(w)
            heights.append(h)
        elif kind == "audio":
            # genuine little-endian int16 PCM (even byte count) so the
            # raw backend exercises real DSP math
            payloads.append(rng.bytes(2 * (128 + int(rng.randint(0, 256)))))
            widths.append(0)
            heights.append(0)
        else:
            # genuine raw video: k concatenated uint8 H×W×3 frames
            w, h = int(rng.randint(4, 12)), int(rng.randint(4, 12))
            k = int(rng.randint(4, 9))
            payloads.append(rng.bytes(k * w * h * 3))
            widths.append(w)
            heights.append(h)
        durations.append(int(rng.randint(100, 10_000)) if kind != "image" else 0)
    return pa.table(
        {
            "media_ref": pa.array(refs),
            "kind": pa.array(kinds),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "duration_ms": pa.array(durations, type=pa.int32()),
        }
    )


class MediaFeatureExtractor:
    """map_batches stage, mapped as a task with an instance: decode →
    feature-extract media payloads.

    Large binary payloads need SMALL batches: the dataset wrappers map it
    ``_MEDIA_BATCH_ROWS`` rows at a time, so batch bytes × concurrent tasks
    fits the worker heap.
    """

    def __init__(self, decoder: str = "fake", feature_dim: int = 32):
        if decoder not in ("fake", "raw", "real"):
            raise ValueError(decoder)
        if decoder == "raw" and feature_dim < 4:
            raise ValueError("raw features need feature_dim >= 4")
        self.decoder = decoder
        self.feature_dim = feature_dim
        # no model loads here: every backend is a pure function of the
        # payload. A backend that loads a vision/audio model would need an
        # actor pool to load it once per worker.

    def _decode_real(self, kind: str, payload: bytes) -> np.ndarray:
        raise NotImplementedError(
            f"real {kind} decode requires PIL/librosa/av, not present in this "
            "container — plug the library call here"
        )

    def _decode_fake(self, kind: str, payload: bytes) -> np.ndarray:
        # deterministic pseudo-features from payload bytes
        h = hashlib.blake2b(payload, digest_size=8).digest()
        rng = np.random.RandomState(zlib.crc32(h) & 0x7FFFFFFF)
        return rng.normal(size=self.feature_dim).astype(np.float32)

    def _decode_raw_image(self, payload: bytes, w: int, h: int) -> np.ndarray:
        """REAL pixel features from an uncompressed uint8 H×W×3 buffer:
        per-channel means (3) + a luminance histogram (feature_dim - 3).
        Pure numpy — this path actually executes in this container."""
        img = np.frombuffer(payload, dtype=np.uint8)
        if w <= 0 or h <= 0 or img.size != w * h * 3:
            raise ValueError(
                f"raw image payload is {img.size} B, metadata says {w}x{h}x3"
            )
        img = img.reshape(h, w, 3).astype(np.float32) / 255.0
        means = img.mean(axis=(0, 1))
        lum = img.mean(axis=2).ravel()
        hist, _ = np.histogram(lum, bins=self.feature_dim - 3, range=(0.0, 1.0))
        return np.concatenate(
            [means, hist.astype(np.float32) / lum.size]
        ).astype(np.float32)

    def _decode_raw_audio(self, payload: bytes) -> np.ndarray:
        """REAL DSP stats from an uncompressed little-endian int16 PCM
        buffer: RMS, zero-crossing rate, peak (3) + an |amplitude|
        histogram (feature_dim - 3). Pure numpy."""
        if len(payload) % 2:
            raise ValueError("raw PCM payload must be int16-aligned")
        x = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
        if x.size == 0:
            return np.zeros(self.feature_dim, dtype=np.float32)
        rms = float(np.sqrt(np.mean(x * x)))
        zcr = float(np.mean(x[1:] * x[:-1] < 0)) if x.size > 1 else 0.0
        peak = float(np.abs(x).max())
        hist, _ = np.histogram(np.abs(x), bins=self.feature_dim - 3, range=(0.0, 1.0))
        return np.concatenate(
            [[rms, zcr, peak], hist.astype(np.float32) / x.size]
        ).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        widths = (
            batch["width"].to_pylist()
            if "width" in batch.column_names else [0] * len(refs)
        )
        heights = (
            batch["height"].to_pylist()
            if "height" in batch.column_names else [0] * len(refs)
        )
        feats, shas = [], []
        for kind, payload, w, hgt in zip(kinds, payloads, widths, heights):
            payload = payload or b""
            if self.decoder == "real":
                vec = self._decode_real(kind, payload)
            elif self.decoder == "raw" and kind == "image":
                vec = self._decode_raw_image(payload, int(w or 0), int(hgt or 0))
            elif self.decoder == "raw" and kind == "audio":
                vec = self._decode_raw_audio(payload)
            else:
                # raw mode covers uncompressed image/PCM arrays; video
                # still needs a codec → deterministic fake keeps it flowing
                vec = self._decode_fake(kind, payload)
            feats.append(vec.tolist())
            shas.append(hashlib.sha256(payload).hexdigest()[:16])
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "kind": pa.array(kinds, type=pa.string()),
                "feature": pa.array(feats, type=pa.list_(pa.float32())),
                "feature_dim": pa.array([self.feature_dim] * len(refs), type=pa.int32()),
                "payload_sha": pa.array(shas, type=pa.string()),
            }
        )


def extract_media_features(
    media: "object",
    decoder: str = "fake",
    feature_dim: int = 32,
):
    """Dataset-level wrapper (small batches: payloads are large binaries)."""
    return media.map_batches(
        MediaFeatureExtractor(decoder, feature_dim),
        batch_format="pyarrow",
        batch_size=_MEDIA_BATCH_ROWS,
    )


class ImageResizer:
    """Resize stage, mapped as a task with an instance: payload → resized
    payload + updated dims.

    ``backend="fake"`` emits a deterministic byte transform (truncated
    payload hash-extended to a size proportional to the target area) so the
    pipeline plumbing — small batches, metadata update, passthrough of
    non-image rows — is fully exercised; ``backend="real"`` raises at the
    exact point the PIL call goes.
    """

    def __init__(self, target_w: int = 64, target_h: int = 64, backend: str = "fake"):
        if backend not in ("fake", "raw", "real"):
            raise ValueError(backend)
        self.target_w = target_w
        self.target_h = target_h
        self.backend = backend

    def _resize_real(self, payload: bytes) -> bytes:
        raise NotImplementedError(
            "real image resize requires PIL, not present in this container — "
            "Image.open(BytesIO(payload)).resize((w, h)) goes here"
        )

    def _resize_fake(self, payload: bytes) -> bytes:
        size = max(16, self.target_w * self.target_h // 64)
        h = hashlib.blake2b(payload, digest_size=32).digest()
        return (h * (size // 32 + 1))[:size]

    def _resize_raw(self, payload: bytes, w: int, h: int) -> bytes:
        """REAL nearest-neighbor resize of an uncompressed uint8 H×W×3
        buffer — two integer index grids + one fancy-index take, using the
        left-aligned sampling rule ``src = dst * src_dim // dst_dim``
        (deterministic and exact; PIL's NEAREST samples pixel centers, so
        outputs can differ by one source pixel at boundaries). Pure numpy,
        actually executes here."""
        img = np.frombuffer(payload, dtype=np.uint8)
        if w <= 0 or h <= 0 or img.size != w * h * 3:
            raise ValueError(
                f"raw image payload is {img.size} B, metadata says {w}x{h}x3"
            )
        img = img.reshape(h, w, 3)
        yi = (np.arange(self.target_h) * h) // self.target_h
        xi = (np.arange(self.target_w) * w) // self.target_w
        return img[yi][:, xi].tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        out_payloads, out_w, out_h = [], [], []
        for kind, payload, w, hgt in zip(
            kinds, payloads, batch["width"].to_pylist(), batch["height"].to_pylist()
        ):
            if kind != "image":  # non-image rows pass through untouched
                out_payloads.append(payload)
                out_w.append(w)
                out_h.append(hgt)
                continue
            if self.backend == "raw":
                out_payloads.append(
                    self._resize_raw(payload or b"", int(w or 0), int(hgt or 0))
                )
            else:
                fn = self._resize_real if self.backend == "real" else self._resize_fake
                out_payloads.append(fn(payload or b""))
            out_w.append(self.target_w)
            out_h.append(self.target_h)
        return pa.table(
            {
                "media_ref": batch["media_ref"],
                "kind": batch["kind"],
                "payload": pa.array(out_payloads, type=pa.binary()),
                "width": pa.array(out_w, type=pa.int32()),
                "height": pa.array(out_h, type=pa.int32()),
                "duration_ms": batch["duration_ms"],
            }
        )


class FrameSampler:
    """Frame-sampling stage, mapped as a task with an instance: one video
    row → N frame rows.

    Emits evenly-spaced frame timestamps over duration_ms with a
    deterministic fake frame payload per (video, timestamp);
    ``backend="real"`` raises where the av/ffmpeg seek-and-decode goes.
    Non-video rows are dropped (this stage feeds a frame pipeline).
    """

    def __init__(self, n_frames: int = 4, backend: str = "fake"):
        if backend not in ("fake", "raw", "real"):
            raise ValueError(backend)
        self.n_frames = n_frames
        self.backend = backend

    def _frame_real(self, payload: bytes, ts_ms: int) -> bytes:
        raise NotImplementedError(
            "real frame extraction requires av/ffmpeg, not present — "
            "container seek + decode goes here"
        )

    def _frame_fake(self, payload: bytes, ts_ms: int) -> bytes:
        return hashlib.blake2b(
            payload + ts_ms.to_bytes(8, "little"), digest_size=64
        ).digest()

    @staticmethod
    def _frame_raw(payload: bytes, ts_ms: int, dur: int, w: int, h: int) -> bytes:
        """REAL frame extraction from a raw video payload (k concatenated
        uint8 H×W×3 frames): the timestamp maps to a frame index and the
        frame is one byte slice — the seek+decode of the uncompressed
        world. Pure slicing, actually executes here."""
        fsz = w * h * 3
        if fsz <= 0 or len(payload) % fsz:
            raise ValueError(
                f"raw video payload ({len(payload)} B) is not a whole number "
                f"of {w}x{h}x3 frames"
            )
        k = len(payload) // fsz
        idx = min(k - 1, (ts_ms * k) // max(dur, 1))
        return payload[idx * fsz:(idx + 1) * fsz]

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, kinds = batch["media_ref"].to_pylist(), batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        durations = batch["duration_ms"].to_pylist()
        widths = (
            batch["width"].to_pylist()
            if "width" in batch.column_names else [0] * len(refs)
        )
        heights = (
            batch["height"].to_pylist()
            if "height" in batch.column_names else [0] * len(refs)
        )
        o_ref, o_idx, o_ts, o_frame = [], [], [], []
        for ref, kind, payload, dur, w, hgt in zip(
            refs, kinds, payloads, durations, widths, heights
        ):
            if kind != "video":
                continue
            dur = max(int(dur or 0), 1)
            payload = payload or b""
            for i in range(self.n_frames):
                # evenly spaced, centered: (i + 0.5) / n of the duration
                ts = int(dur * (2 * i + 1) // (2 * self.n_frames))
                if self.backend == "raw":
                    frame = self._frame_raw(payload, ts, dur, int(w or 0), int(hgt or 0))
                elif self.backend == "real":
                    frame = self._frame_real(payload, ts)
                else:
                    frame = self._frame_fake(payload, ts)
                o_ref.append(ref)
                o_idx.append(i)
                o_ts.append(ts)
                o_frame.append(frame)
        return pa.table(
            {
                "media_ref": pa.array(o_ref, type=pa.string()),
                "frame_idx": pa.array(o_idx, type=pa.int32()),
                "ts_ms": pa.array(o_ts, type=pa.int32()),
                "frame": pa.array(o_frame, type=pa.binary()),
            }
        )


def resize_images(media, target_w: int = 64, target_h: int = 64,
                  backend: str = "fake"):
    """Dataset wrapper (small batches: payloads are large binaries)."""
    return media.map_batches(
        ImageResizer(target_w, target_h, backend),
        batch_format="pyarrow", batch_size=_MEDIA_BATCH_ROWS,
    )


def sample_frames(media, n_frames: int = 4, backend: str = "fake"):
    """Dataset wrapper: video rows fan out to frame rows (small batches)."""
    return media.map_batches(
        FrameSampler(n_frames, backend), batch_format="pyarrow",
        batch_size=_FRAME_BATCH_ROWS,
    )


def span_kind_transitions(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    image_every: int = 7,
    image_offset: int = 3,
):
    """Interleaved-document structure analytics: corpus-wide counts of
    consecutive span-kind transitions (text→image, image→text, …) over
    the interleaved span sequence — the layout profile a multimodal
    training pipeline reads before choosing packing/sampling strategy.
    → (kind_a, kind_b, n).

    Spans are the document's ``\\n``-split segments with a deterministic
    media injection (every ``image_every``-th span at ``image_offset`` is
    an image slot — the synth rule the SQL oracle replays with lead()).
    Pure-map transition extraction, vectorized across the whole batch
    with doc boundaries masked (the term_cooccurrence kernel shape); one
    coarse combiner shuffle carries only (kind_a, kind_b, count) rows —
    O(kinds²) per block, never spans.
    """
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        lines = texts.str.split("\n")
        n_spans = lines.str.len().to_numpy(dtype=np.int64)
        total = int(n_spans.sum())
        if total == 0:
            return pa.table({
                "kind_a": pa.array([], type=pa.string()),
                "kind_b": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            })
        doc_idx = np.repeat(np.arange(len(texts)), n_spans)
        pos = np.arange(total) - np.repeat(
            np.cumsum(n_spans) - n_spans, n_spans
        )
        kinds = np.where(pos % image_every == image_offset, "image", "text")
        # consecutive pairs within the same doc (boundary-masked shift)
        same_doc = doc_idx[1:] == doc_idx[:-1]
        ka, kb = kinds[:-1][same_doc], kinds[1:][same_doc]
        g = (
            pd.DataFrame({"kind_a": ka, "kind_b": kb})
            .groupby(["kind_a", "kind_b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.table({
            "kind_a": pa.array(g["kind_a"].to_numpy(), type=pa.string()),
            "kind_b": pa.array(g["kind_b"].to_numpy(), type=pa.string()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["kind_a", "kind_b"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    return shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["kind_a", "kind_b"],
        combine,
    )


# --- perceptual image dedup (average hash) ---------------------------------

_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array via the byte LUT (numpy
    1.x has no bitwise_count)."""
    return _POPCOUNT8[x.view(np.uint8).reshape(len(x), 8)].sum(
        axis=1
    ).astype(np.int64)


def image_average_hash(
    media: "ray.data.Dataset", grid: int = 8
) -> "ray.data.Dataset":
    """→ (media_ref, ahash): 64-bit average-hash of every IMAGE row's raw
    uint8 H×W×3 payload — REAL pixel math (the perceptual fingerprint
    behind image near-dedup: LAION/DataComp-style phash dedup).

    Grayscale block means over a grid×grid partition via one integral
    image (exact block sums at any resolution, no resampling kernel
    ambiguity), thresholded at the grid mean, packed MSB-first. Pure
    per-row numpy inside map_batches; non-image rows are dropped
    map-side (nothing shuffles)."""

    def kern(batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        refs, hashes = [], []
        for ref, kind, payload, w, h in zip(
            batch["media_ref"].to_pylist(),
            kinds,
            batch["payload"].to_pylist(),
            batch["width"].to_pylist(),
            batch["height"].to_pylist(),
        ):
            if kind != "image":
                continue
            img = np.frombuffer(payload, dtype=np.uint8)
            if w < grid or h < grid or img.size != w * h * 3:
                raise ValueError(
                    f"raw image {ref}: {img.size} B vs metadata {w}x{h}x3"
                )
            gray = img.reshape(h, w, 3).astype(np.float64).mean(axis=2)
            integ = np.zeros((h + 1, w + 1), dtype=np.float64)
            integ[1:, 1:] = gray.cumsum(axis=0).cumsum(axis=1)
            rb = (np.arange(grid + 1) * h) // grid
            cb = (np.arange(grid + 1) * w) // grid
            sums = (
                integ[np.ix_(rb[1:], cb[1:])]
                - integ[np.ix_(rb[:-1], cb[1:])]
                - integ[np.ix_(rb[1:], cb[:-1])]
                + integ[np.ix_(rb[:-1], cb[:-1])]
            )
            areas = np.outer(np.diff(rb), np.diff(cb)).astype(np.float64)
            means = sums / areas
            bits = (means > means.mean()).ravel()
            val = np.uint64(0)
            for b in bits:
                val = (val << np.uint64(1)) | np.uint64(bool(b))
            refs.append(ref)
            hashes.append(np.int64(val.astype(np.int64)))
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "ahash": pa.array(np.array(hashes, dtype=np.int64)),
        })

    return media.map_batches(kern, batch_format="pyarrow")


def phash_dup_pairs(
    hashed: "ray.data.Dataset",
    max_hamming: int = 3,
    n_bands: int = 4,
    max_bucket: int = 4096,
) -> "ray.data.Dataset":
    """→ (ref_a, ref_b, hamming): perceptual near-dup pairs — hashes
    within ``max_hamming`` bits that collide on at least one 16-bit band.
    Pigeonhole: ≤ n_bands-1 differing bits ALWAYS leave one band clean,
    so recall is exact for max_hamming ≤ n_bands-1 (enforced). Band rows
    shuffle on a coarse ``hash(band) % P`` key; within-bucket pairs via
    one vectorized merge per partition, buckets truncated to
    ``max_bucket`` (documented hot-bucket bound); popcount via byte
    LUT."""
    import pandas as pd

    from .shuffle import shuffle_by

    if max_hamming > n_bands - 1:
        raise ValueError(
            "exact recall requires max_hamming <= n_bands - 1 (pigeonhole)"
        )
    band_bits = 64 // n_bands
    mask = np.uint64((1 << band_bits) - 1)

    def band_rows(batch: pa.Table) -> pa.Table:
        h = batch["ahash"].to_numpy(zero_copy_only=False).astype(np.int64)
        refs = batch["media_ref"].to_pylist()
        n = len(h)
        hu = h.view(np.uint64)
        out_ref, out_hash, out_key = [], [], []
        for b in range(n_bands):
            band = (hu >> np.uint64(b * band_bits)) & mask
            key = (np.uint64(b) << np.uint64(band_bits)) | band
            out_ref.extend(refs)
            out_hash.append(h)
            out_key.append(key)
        keys = np.concatenate(out_key).astype(np.uint64)
        return pa.table({
            "media_ref": pa.array(out_ref, type=pa.string()),
            "ahash": pa.array(np.concatenate(out_hash)),
            "bkey": pa.array(keys.astype(np.int64)),
        })

    def pairs(group: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame({
            "ref_a": pd.Series([], dtype=object),
            "ref_b": pd.Series([], dtype=object),
            "hamming": pd.Series([], dtype="int64"),
        })
        g = group.drop_duplicates(["bkey", "media_ref"]).sort_values(
            ["bkey", "media_ref"], kind="stable"
        )
        g = g.groupby("bkey", sort=False).head(max_bucket)
        m = g.merge(g, on="bkey", suffixes=("_a", "_b"))
        m = m[m["media_ref_a"] < m["media_ref_b"]]
        if m.empty:
            return empty
        x = m["ahash_a"].to_numpy().view(np.uint64) ^ m[
            "ahash_b"
        ].to_numpy().view(np.uint64)
        ham = _popcount64(x)
        m = m[ham <= max_hamming]
        out = pd.DataFrame({
            "ref_a": m["media_ref_a"].to_numpy(dtype=object),
            "ref_b": m["media_ref_b"].to_numpy(dtype=object),
            "hamming": ham[ham <= max_hamming],
        })
        # within-partition dedup only — the cross-partition distinct
        # (same pair via bands in different partitions) happens below
        return out.drop_duplicates(["ref_a", "ref_b"])

    from .joins import distinct_on

    raw = shuffle_by(
        hashed.map_batches(band_rows, batch_format="pyarrow"), "bkey", pairs
    )
    # hamming is a pure function of the pair → safe in the distinct key
    return distinct_on(raw, ["ref_a", "ref_b", "hamming"])
