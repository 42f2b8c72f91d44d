"""Codec round-trips + PSNR invariant (BASELINE.json input_hint)."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rasters_ray import codec
from rasters_ray.codec import png_codec
from rasters_ray.sources import average_hash, make_fixture_images, make_oracle_images


@pytest.mark.parametrize("typ", ["binary", "large_binary"])
def test_blob_reader_reads_chunked_and_sliced_columns_in_place(typ):
    import pyarrow as pa

    typ = getattr(pa, typ)()
    vals = [b"a", b"bcd", b"", b"efgh" * 50, b"ij", b"k"]
    chunked = pa.chunked_array(
        [pa.array(vals[:2], typ), pa.array([], typ), pa.array(vals[2:5], typ),
         pa.array([], typ), pa.array(vals[5:], typ)])
    cols = [pa.array(vals, typ), pa.array(vals, typ).slice(2, 3), chunked,
            chunked.slice(1), chunked.slice(1, 3), chunked.slice(4), chunked.slice(6),
            pa.chunked_array([pa.array(vals, typ).slice(1, 4), pa.array(vals, typ).slice(3)])]
    for col in cols:
        reader = codec.BlobReader(col)
        assert [bytes(reader[i]) for i in range(len(col))] == col.to_pylist()
    # a view of the Arrow buffer, not a copy
    buf = chunked.chunk(2).buffers()[2]
    view = codec.BlobReader(chunked)[3]
    assert np.shares_memory(np.frombuffer(view, np.uint8), np.frombuffer(buf, np.uint8))


def test_npy_round_trip_uint8():
    a = np.random.default_rng(0).integers(0, 256, (37, 53), dtype=np.uint8)
    assert np.array_equal(codec.decode(codec.encode(a, "npy"), "npy"), a)


def test_npy_round_trip_float_nan():
    a = np.random.default_rng(1).random((20, 20)).astype(np.float32)
    a[3, 4] = np.nan
    back = codec.decode(codec.encode(a, "npy"), "npy")
    np.testing.assert_array_equal(np.isnan(back), np.isnan(a))
    np.testing.assert_array_equal(back[~np.isnan(a)], a[~np.isnan(a)])



def _npy_bytes(a: np.ndarray) -> bytes:
    import io

    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def test_npy_fortran_order_header_decodes_like_np_load():
    a = np.asfortranarray(np.arange(12, dtype=np.int16).reshape(3, 4))
    raw = _npy_bytes(a)
    assert b"'fortran_order': True" in raw[:128]
    for _ in range(2):  # the second decode reads the memoized header
        back = codec.decode(raw, "npy")
        assert back.flags.f_contiguous and back.shape == (3, 4)
        np.testing.assert_array_equal(back, a)


def test_npy_3d_header_keeps_its_shape():
    a = np.arange(2 * 3 * 5, dtype=np.float32).reshape(2, 3, 5)
    raw = codec.encode(a, "npy")
    for _ in range(2):
        back = codec.decode(raw, "npy")
        assert back.shape == (2, 3, 5) and back.dtype == np.float32
        np.testing.assert_array_equal(back, a)


def test_npy_malformed_header_raises_every_time():
    good = codec.encode(np.zeros((2, 2), np.uint8), "npy")
    (hlen,) = np.frombuffer(good[8:10], dtype="<u2")
    header = b"{'descr': '|u1', 'fortran_order': False, 'shape': (2, 2), ".ljust(int(hlen) - 1) + b"\n"
    bad = good[:10] + header + good[10 + int(hlen):]
    for _ in range(2):  # a failed parse is not memoized
        with pytest.raises(SyntaxError):
            codec.decode(bad, "npy")


def test_png_round_trip_uint8():
    a = np.random.default_rng(2).integers(0, 256, (64, 64), dtype=np.uint8)
    assert np.array_equal(codec.decode(codec.encode(a, "png"), "png"), a)


def test_png_round_trip_uint16():
    a = np.random.default_rng(3).integers(0, 65536, (16, 24), dtype=np.uint16)
    assert np.array_equal(codec.decode(codec.encode(a, "png"), "png"), a)


def test_png_1x1():
    a = np.array([[7]], dtype=np.uint8)
    assert np.array_equal(codec.decode(codec.encode(a, "png"), "png"), a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16]), st.integers(1, 4),
       st.integers(1, 24), st.integers(1, 24), st.data())
@example(np.uint8, 1, 1, 1, None)
@example(np.uint16, 3, 1, 17, None)
@example(np.uint8, 4, 19, 1, None)
def test_png_round_trip_property(dtype, nch, h, w, data):
    """Any uint8/uint16 gray, gray+alpha, RGB or RGBA array, 1x1, 1xN
    and Nx1 included, decodes to itself."""
    shape = (h, w) if nch == 1 else (h, w, nch)
    if data is None:  # the pinned shapes: every sample at its maximum
        a = np.full(shape, np.iinfo(dtype).max, dtype=dtype)
    else:
        a = data.draw(hnp.arrays(dtype, shape))
    back = codec.decode(codec.encode(a, "png"), "png")
    assert back.dtype == a.dtype and np.array_equal(back, a)


def _idat_rows(png: bytes, h: int) -> np.ndarray:
    """The decompressed scanlines of a one-IDAT PNG, one row each."""
    at = png.index(b"IDAT")
    (n,) = struct.unpack(">I", png[at - 4:at])
    return np.frombuffer(zlib.decompress(png[at + 4:at + 4 + n]), np.uint8).reshape(h, -1)


@pytest.mark.parametrize("shape,dtype", [((1, 1), np.uint8), ((40, 33), np.uint8),
                                         ((7, 5, 3), np.uint16), ((1, 9, 4), np.uint8),
                                         ((12, 1, 2), np.uint16)])
def test_png_encoder_writes_every_scanline_up(shape, dtype):
    a = np.random.default_rng(sum(shape)).integers(0, np.iinfo(dtype).max, shape, dtype=dtype)
    png = codec.encode(a, "png")
    rows = _idat_rows(png, shape[0])
    assert (rows[:, 0] == 2).all()
    assert png == _rechunked(png)


def test_qnt_bytes_match_a_copied_buffer():
    """The quantized payload deflates from the array's own buffer: the
    same bytes as deflating a ``tobytes()`` copy."""
    a = (np.random.default_rng(8).random((37, 23)) * 90.0 - 10.0).astype(np.float32)
    a[3, 4] = np.nan
    blob = codec.encode(a, "qnt")
    q = np.frombuffer(zlib.decompress(blob[20:]), dtype=np.uint16)
    assert blob[20:] == zlib.compress(q.tobytes(), 6)


def test_qnt_lossy_psnr_over_40db():
    a = (np.random.default_rng(4).random((100, 100)) * 300.0 - 50.0).astype(np.float32)
    back = codec.decode(codec.encode(a, "qnt"), "qnt")
    assert codec.psnr(a, back, peak=float(np.abs(a).max())) >= 40.0


def test_qnt_nan_preserved():
    a = np.random.default_rng(5).random((10, 10)).astype(np.float32)
    a[0, 0] = np.nan
    back = codec.decode(codec.encode(a, "qnt"), "qnt")
    assert np.isnan(back[0, 0])
    assert np.isfinite(back[1:]).all()


def test_average_hash_deterministic_and_discriminative():
    a = np.random.default_rng(6).integers(0, 256, (64, 64), dtype=np.uint8)
    b = np.random.default_rng(7).integers(0, 256, (64, 64), dtype=np.uint8)
    assert average_hash(a) == average_hash(a.copy())
    assert average_hash(a) != average_hash(b)


def test_fixture_images_schema_and_dupes():
    t = make_fixture_images(np.arange(128))
    assert t.num_rows == 128
    assert t.column_names == ["image_id", "bytes", "w", "h", "fmt", "caption", "phash", "grid"]
    # row 0 is the 1x1 degenerate image
    assert t["w"][0].as_py() == 1 and t["h"][0].as_py() == 1
    # i=100 duplicates i=99 pixels -> same phash
    ph = t["phash"].to_pylist()
    assert ph[100] == ph[99]
    # decode every row: bytes round-trip at declared size, caption intact
    for i in range(0, 128, 13):
        fmt = t["fmt"][i].as_py()
        arr = codec.decode(t["bytes"][i].as_py(), fmt)
        assert arr.shape == (t["h"][i].as_py(), t["w"][i].as_py())
        assert t["caption"][i].as_py().startswith(f"synthetic scene {i} at ")


def test_oracle_images_formula():
    t = make_oracle_images(np.arange(4))
    arr = codec.decode(t["bytes"][2].as_py(), "npy")
    # pixel(d,r,c) = (d*31 + r*7 + c*13) % 251
    assert arr[0, 0] == (2 * 31) % 251
    assert arr[3, 5] == (2 * 31 + 3 * 7 + 5 * 13) % 251
    g = t["grid"][2].as_py()
    assert g["x_origin"] == pytest.approx(-123.0)
    assert g["y_origin"] == pytest.approx(44.0)


# --- PNG real-world envelope (color types, filters, interlace) -----------

def _png_chunk(tag, payload):
    import struct, zlib
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def _rechunked(png: bytes) -> bytes:
    """``png`` rebuilt chunk by chunk, each CRC over a ``tag + payload`` copy."""
    out, pos = png[:8], 8
    while pos < len(png):
        (n,) = struct.unpack(">I", png[pos:pos + 4])
        out += _png_chunk(png[pos + 4:pos + 8], png[pos + 8:pos + 8 + n])
        pos += 12 + n
    return out


def _png_build(w, h, depth, color, body, extra=()):
    import struct, zlib
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0,
                       1 if isinstance(body, list) else 0)
    raw = b"".join(body) if isinstance(body, list) else body
    out = b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
    for tag, payload in extra:
        out += _png_chunk(tag, payload)
    return out + _png_chunk(b"IDAT", zlib.compress(raw)) + _png_chunk(b"IEND", b"")


def _ref_unfilter(rows, stride, bpp):
    """Slow per-byte reference straight from the RFC 2083 pseudo-code."""
    out = []
    prev = bytearray(stride)
    for ft, line in rows:
        cur = bytearray(line)
        for i in range(stride):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ft == 1:
                cur[i] = (cur[i] + a) & 0xFF
            elif ft == 2:
                cur[i] = (cur[i] + b) & 0xFF
            elif ft == 3:
                cur[i] = (cur[i] + ((a + b) >> 1)) & 0xFF
            elif ft == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[i] = (cur[i] + pred) & 0xFF
        out.append(bytes(cur))
        prev = cur
    return out


def test_png_all_filters_vs_reference():
    """Every filter type on RGB rows: the vectorized undo must agree
    byte-for-byte with the RFC pseudo-code reference."""
    rng = np.random.default_rng(11)
    w, h, bpp = 17, 10, 3
    stride = w * bpp
    rows = [(r % 5, rng.integers(0, 256, stride, dtype=np.uint8).tobytes())
            for r in range(h)]
    body = b"".join(bytes([ft]) + ln for ft, ln in rows)
    png = _png_build(w, h, 8, 2, body)
    got = codec.decode(png, "png")
    exp = np.frombuffer(b"".join(_ref_unfilter(rows, stride, bpp)),
                        dtype=np.uint8).reshape(h, w, 3)
    assert np.array_equal(got, exp)


class _NumpySpy:
    """Stands in for ``png_codec.np`` and counts ``np.empty`` calls: in
    ``_unfilter`` only the per-row decoder allocates with it, the
    whole-image fast paths copy the stream instead."""

    def __init__(self):
        self.empty_calls = 0

    def __getattr__(self, name):
        return self._empty if name == "empty" else getattr(np, name)

    def _empty(self, *args, **kw):
        self.empty_calls += 1
        return np.empty(*args, **kw)


def _unfilter_spied(monkeypatch, body, h, stride, bpp):
    """``_unfilter``'s output, and whether the per-row decoder ran."""
    spy = _NumpySpy()
    monkeypatch.setattr(png_codec, "np", spy)
    out = png_codec._unfilter(body, h, stride, bpp)
    monkeypatch.undo()
    return out, spy.empty_calls > 0


def test_png_all_up_rgb_vs_reference(monkeypatch):
    """An all-Up RGB stream takes the whole-image path and agrees with
    the RFC pseudo-code reference."""
    rng = np.random.default_rng(14)
    w, h, bpp = 13, 9, 3
    stride = w * bpp
    rows = [(2, rng.integers(0, 256, stride, dtype=np.uint8).tobytes()) for _ in range(h)]
    body = b"".join(bytes([ft]) + ln for ft, ln in rows)
    exp = np.frombuffer(b"".join(_ref_unfilter(rows, stride, bpp)),
                        dtype=np.uint8).reshape(h, w, 3)
    assert np.array_equal(codec.decode(_png_build(w, h, 8, 2, body), "png"), exp)
    out, per_row = _unfilter_spied(monkeypatch, body, h, stride, bpp)
    assert not per_row and np.array_equal(out, exp.reshape(h, stride))
    # one non-Up row sends the same stream to the per-row decoder
    mixed = bytes([1]) + body[1:]
    out, per_row = _unfilter_spied(monkeypatch, mixed, h, stride, bpp)
    assert per_row
    exp = b"".join(_ref_unfilter([(1, rows[0][1])] + rows[1:], stride, bpp))
    assert out.tobytes() == exp


def test_png_filter0_stream_takes_copy_path(monkeypatch):
    rng = np.random.default_rng(15)
    h, stride = 6, 10
    px = rng.integers(0, 256, (h, stride), dtype=np.uint8)
    body = b"".join(b"\x00" + r.tobytes() for r in px)
    out, per_row = _unfilter_spied(monkeypatch, body, h, stride, 1)
    assert not per_row and np.array_equal(out, px)
    assert np.array_equal(codec.decode(_png_build(stride, h, 8, 0, body), "png"), px)


def test_png_all_up_adam7_vs_reference():
    """An interlaced stream whose every pass is all-Up: each pass
    decodes like the reference and lands on its lattice."""
    rng = np.random.default_rng(16)
    w, h, bpp = 10, 11, 3
    exp = np.zeros((h, w, 3), dtype=np.uint8)
    passes = []
    for x0, dx, y0, dy in png_codec._ADAM7:
        pw, ph = len(range(x0, w, dx)), len(range(y0, h, dy))
        if pw == 0 or ph == 0:
            continue
        rows = [(2, rng.integers(0, 256, pw * bpp, dtype=np.uint8).tobytes())
                for _ in range(ph)]
        passes.append(b"".join(b"\x02" + ln for _, ln in rows))
        sub = b"".join(_ref_unfilter(rows, pw * bpp, bpp))
        exp[y0::dy, x0::dx] = np.frombuffer(sub, np.uint8).reshape(ph, pw, 3)
    assert np.array_equal(codec.decode(_png_build(w, h, 8, 2, passes), "png"), exp)


def test_png_rgba_gray_alpha_roundtrip():
    rng = np.random.default_rng(12)
    rgba = rng.integers(0, 256, (9, 13, 4), dtype=np.uint8)
    assert np.array_equal(codec.decode(codec.encode(rgba, "png"), "png"), rgba)
    ga16 = rng.integers(0, 65536, (5, 7, 2), dtype=np.uint16)
    assert np.array_equal(codec.decode(codec.encode(ga16, "png"), "png"), ga16)


def test_png_palette_and_trns():
    """Color type 3: indices expand through PLTE; tRNS adds the alpha
    column (web transparency)."""
    idx = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.uint8)
    plte = bytes([255, 0, 0,  0, 255, 0,  0, 0, 255,  10, 20, 30])
    body = b"".join(b"\x00" + r.tobytes() for r in idx)
    png = _png_build(4, 2, 8, 3, body, extra=[(b"PLTE", plte)])
    got = codec.decode(png, "png")
    assert got.shape == (2, 4, 3) and tuple(got[0, 3]) == (10, 20, 30)
    png_t = _png_build(4, 2, 8, 3, body,
                       extra=[(b"PLTE", plte), (b"tRNS", bytes([0, 128]))])
    got = codec.decode(png_t, "png")
    assert got.shape == (2, 4, 4)
    assert got[0, 0, 3] == 0 and got[0, 1, 3] == 128 and got[0, 2, 3] == 255


def test_png_sub_byte_depths():
    """1/2/4-bit gray: MSB-first packing, raw sample values returned."""
    # 4-bit: w=5 -> 3 bytes/row, last nibble padding
    row = bytes([0x12, 0x34, 0x50])
    png = _png_build(5, 1, 4, 0, b"\x00" + row)
    assert codec.decode(png, "png").tolist() == [[1, 2, 3, 4, 5]]
    # 1-bit: w=10 -> 2 bytes/row
    png = _png_build(10, 1, 1, 0, b"\x00" + bytes([0b10110001, 0b01000000]))
    assert codec.decode(png, "png").tolist() == [[1, 0, 1, 1, 0, 0, 0, 1, 0, 1]]
    # 2-bit palette
    plte = bytes(range(12))
    png = _png_build(4, 1, 2, 3, b"\x00" + bytes([0b00011011]),
                     extra=[(b"PLTE", plte)])
    got = codec.decode(png, "png")
    assert np.array_equal(got, np.arange(12, dtype=np.uint8).reshape(1, 4, 3))


def test_png_adam7_interlace():
    """Adam7: a hand-built interlaced stream decodes to the same pixels
    as the plain encoding of the same image."""
    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, (11, 9, 3), dtype=np.uint8)
    passes = []
    lattices = ((0, 8, 0, 8), (4, 8, 0, 8), (0, 4, 4, 8), (2, 4, 0, 4),
                (0, 2, 2, 4), (1, 2, 0, 2), (0, 1, 1, 2))
    for x0, dx, y0, dy in lattices:
        sub = img[y0::dy, x0::dx]
        if sub.size == 0:
            continue
        passes.append(b"".join(b"\x00" + r.tobytes() for r in sub))
    png = _png_build(9, 11, 8, 2, passes)
    assert np.array_equal(codec.decode(png, "png"), img)
    # 16-bit gray interlaced too
    img16 = rng.integers(0, 65536, (6, 5), dtype=np.uint16)
    passes = []
    for x0, dx, y0, dy in lattices:
        sub = img16[y0::dy, x0::dx]
        if sub.size == 0:
            continue
        passes.append(b"".join(b"\x00" + r.astype(">u2").tobytes() for r in sub))
    png = _png_build(5, 6, 16, 0, passes)
    assert np.array_equal(codec.decode(png, "png"), img16)


def test_png_error_paths():
    with pytest.raises(ValueError, match="not a PNG"):
        codec.decode(b"JUNKJUNKJUNK", "png")
    body = b"\x00" + bytes(3)
    png = _png_build(1, 1, 8, 3, body)  # palette without PLTE
    with pytest.raises(ValueError, match="PLTE"):
        codec.decode(png, "png")
    png = _png_build(2, 2, 8, 0, b"\x00\x01")  # truncated stream
    with pytest.raises(ValueError, match="truncated"):
        codec.decode(png, "png")
