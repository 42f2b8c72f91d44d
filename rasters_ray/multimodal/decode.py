"""Multimodal batch stages: decode / resize / feature-extract /
frame-sample over opaque binary columns.

The Ray-side plumbing (schemas, stage signatures, batch sizing, output
layout) is REAL and tested, and so are the codec bodies for every
format parseable without external libraries: npy/png/qnt images and —
as of round 4 — baseline JPEG (rasters_ray.codec.jpeg_codec, pure
numpy), RIFF/WAV audio -> log-mel features (``multimodal.audio``,
dependency-free DSP), and the NPV frame container (``encode_npv``).
Remaining foreign formats (mp3/mp4 — ffmpeg absent in this container,
SURVEY.md §7.0; progressive/arithmetic JPEG) route to clearly marked
deterministic fallbacks; ``strict=True`` raises NotImplementedError
for them instead.

Batch-size guidance: binary payloads are MB-scale — size batches so
batch_size x payload x concurrency fits the worker heap (the guide's
memory rule); these stages default to small batches (8).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pyarrow as pa

from .. import codec

_NATIVE_FMTS = {"npy", "png", "qnt", "jpg", "jpeg"}


def deterministic_fake_decode(data: bytes, fmt: str) -> np.ndarray:
    """STUB for foreign codecs (no PIL/ffmpeg in this container): expands
    the byte stream into a deterministic pseudo-pixel array — shape and
    values depend only on the bytes, so pipelines stay testable."""
    h = max(1, min(64, len(data) // 64 + 1))
    w = 64
    seed = int.from_bytes(data[:8].ljust(8, b"\0"), "little") & 0x7FFFFFFF
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


def default_decode(data: bytes, fmt: str, strict: bool = False) -> np.ndarray:
    if fmt in _NATIVE_FMTS:
        return codec.decode(data, fmt)
    if strict:
        raise NotImplementedError(
            f"no codec for fmt={fmt!r} in this environment (PIL/ffmpeg absent); "
            "plug a decoder or use deterministic_fake_decode"
        )
    return deterministic_fake_decode(data, fmt)


class ImageDecodeStage:
    """binary -> decoded stats columns (keeps bytes out of the output)."""

    def __init__(self, decoder: Optional[Callable] = None, strict: bool = False):
        self.decoder = decoder or (lambda b, f: default_decode(b, f, strict))

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        h, w, mean = [], [], []
        for b, f in zip(blobs, fmts):
            arr = self.decoder(b, f)
            h.append(arr.shape[0])
            w.append(arr.shape[1])
            mean.append(float(np.asarray(arr, dtype=np.float64).mean()))
        out = batch.drop_columns(["bytes"])
        out = out.append_column("dec_h", pa.array(h, pa.int32()))
        out = out.append_column("dec_w", pa.array(w, pa.int32()))
        out = out.append_column("dec_mean", pa.array(mean, pa.float64()))
        return out


class ImageResizeStage:
    """binary -> resized binary (nearest-neighbor, pure numpy)."""

    def __init__(self, out_h: int, out_w: int, decoder: Optional[Callable] = None,
                 strict: bool = False):
        self.out_h = out_h
        self.out_w = out_w
        self.decoder = decoder or (lambda b, f: default_decode(b, f, strict))

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        out_blobs = []
        for b, f in zip(blobs, fmts):
            arr = self.decoder(b, f)
            ri = np.minimum((np.arange(self.out_h) * arr.shape[0]) // self.out_h, arr.shape[0] - 1)
            ci = np.minimum((np.arange(self.out_w) * arr.shape[1]) // self.out_w, arr.shape[1] - 1)
            small = arr[np.ix_(ri, ci)]
            enc_fmt = f if f in _NATIVE_FMTS else "npy"
            out_blobs.append(codec.encode(small, enc_fmt))
        i = batch.column_names.index("bytes")
        return batch.set_column(i, "bytes", pa.array(out_blobs, pa.binary()))


class AudioFeatureStage:
    """binary audio -> fixed-length feature vector + frame metadata.

    REAL for RIFF/WAV blobs (PCM 8/16/32 + float32): dependency-free WAV
    decode + log-mel spectrogram (``multimodal.audio``), features =
    per-mel-band mean over time, plus ``sr``/``n_frames``/``duration_ms``
    columns (the frame math carries a DuckDB oracle). Foreign compressed
    formats (mp3/ogg — no codec libs in this container) fall back to the
    documented windowed byte-energy stub, with n_frames/-1 markers."""

    def __init__(self, n_features: int = 16, n_fft: int = 512, hop: int = 256):
        self.n = n_features
        self.n_fft = n_fft
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .audio import decode_wav, logmel, n_frames_for

        blobs = codec.BlobReader(batch.column("bytes"))
        feats, srs, n_frames, dur = [], [], [], []
        for i in range(batch.num_rows):
            b = blobs[i]
            if len(b) >= 12 and bytes(b[:4]) == b"RIFF":
                sr, sig = decode_wav(b)
                lm = logmel(sig, sr, self.n_fft, self.hop, self.n)
                feats.append(
                    lm.mean(axis=0).tolist() if len(lm) else [0.0] * self.n
                )
                srs.append(sr)
                n_frames.append(n_frames_for(len(sig), self.n_fft, self.hop))
                dur.append(int(len(sig) * 1000) // sr)
            else:  # documented fallback for foreign codecs
                raw = np.frombuffer(b if len(b) else b"\0", dtype=np.uint8).astype(np.float32)
                chunks = np.array_split(raw, self.n)
                feats.append([float(c.mean()) if c.size else 0.0 for c in chunks])
                srs.append(-1)
                n_frames.append(-1)
                dur.append(-1)
        out = batch.append_column("features", pa.array(feats, pa.list_(pa.float32())))
        out = out.append_column("sr", pa.array(srs, pa.int32()))
        out = out.append_column("n_frames", pa.array(n_frames, pa.int64()))
        return out.append_column("duration_ms", pa.array(dur, pa.int64()))


_NPV_MAGIC = b"NPV1"


def encode_npv(frames) -> bytes:
    """Engine-native frame container: magic + u32 n_frames + u32
    frame_bytes + concatenated equal-size frame payloads. A real,
    parseable format (ffmpeg is absent, so mp4 stays a fallback; this
    gives frame sampling an actual container to index into)."""
    import struct

    frames = list(frames)
    if not frames:
        return _NPV_MAGIC + struct.pack("<II", 0, 0)
    fb = len(frames[0])
    if any(len(f) != fb for f in frames):
        raise ValueError("NPV frames must be equal-sized")
    return _NPV_MAGIC + struct.pack("<II", len(frames), fb) + b"".join(frames)


class FrameSampleStage:
    """binary video -> every k-th frame; output explodes rows (one per
    sampled frame).

    REAL for the engine's NPV container (indexed equal-size frames,
    ``encode_npv``): frames slice at their true offsets from the header.
    Foreign containers (mp4 — no ffmpeg here) use the documented
    fixed-size byte-window fallback framing."""

    def __init__(self, frame_bytes: int = 4096, every_k: int = 10, id_col: str = "image_id"):
        self.frame_bytes = frame_bytes
        self.every_k = every_k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import struct

        ids = batch.column(self.id_col).to_pylist()
        blobs = codec.BlobReader(batch.column("bytes"))
        out_id, out_idx, out_frame = [], [], []
        for j, vid in enumerate(ids):
            b = blobs[j]
            if len(b) >= 12 and bytes(b[:4]) == _NPV_MAGIC:
                nf, fb = struct.unpack("<II", b[4:12])
                for fi in range(0, nf, self.every_k):
                    out_id.append(vid)
                    out_idx.append(fi)
                    out_frame.append(bytes(b[12 + fi * fb : 12 + (fi + 1) * fb]))
                continue
            raw = bytes(b)
            n_frames = max(1, len(raw) // self.frame_bytes)
            for fi in range(0, n_frames, self.every_k):
                out_id.append(vid)
                out_idx.append(fi)
                out_frame.append(raw[fi * self.frame_bytes : (fi + 1) * self.frame_bytes])
        return pa.table(
            {
                self.id_col: pa.array(out_id),
                "frame_idx": pa.array(out_idx, pa.int32()),
                "frame": pa.array(out_frame, pa.binary()),
            }
        )
