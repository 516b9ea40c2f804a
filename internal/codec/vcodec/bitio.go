package vcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
)

// byteWriter accumulates varint-coded symbols for one logical stream
// (modes, motion vectors, coefficients). Streams are concatenated and
// deflate-compressed into the final packet payload.
type byteWriter struct {
	buf []byte
}

func (w *byteWriter) writeUvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *byteWriter) writeVarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *byteWriter) writeByte(b byte) { w.buf = append(w.buf, b) }

// byteReader consumes what a byteWriter produced.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) readUvarint() (uint64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 { // one-byte fast path
		v := uint64(r.buf[r.pos])
		r.pos++
		return v, nil
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("vcodec: truncated uvarint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) readVarint() (int64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 { // one-byte fast path (zigzag)
		u := int64(r.buf[r.pos])
		r.pos++
		return u>>1 ^ -(u & 1), nil
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("vcodec: truncated varint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) readByte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("vcodec: truncated stream at %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// deflater is per-encoder reusable compression state: the flate writer's
// internal tables (~hundreds of KB) and the output buffer persist across
// frames instead of being reallocated per packet.
type deflater struct {
	fw  *flate.Writer
	lvl int
	out bytes.Buffer
}

// compress writes hdr followed by the deflate of payload and returns a
// fresh copy (the packet the caller keeps — the encode path's only
// per-frame allocation).
func (d *deflater) compress(hdr, payload []byte, level int) ([]byte, error) {
	d.out.Reset()
	d.out.Write(hdr)
	if d.fw == nil || d.lvl != level {
		fw, err := flate.NewWriter(&d.out, level)
		if err != nil {
			return nil, err
		}
		d.fw, d.lvl = fw, level
	} else {
		d.fw.Reset(&d.out)
	}
	if _, err := d.fw.Write(payload); err != nil {
		return nil, err
	}
	if err := d.fw.Close(); err != nil {
		return nil, err
	}
	return append([]byte(nil), d.out.Bytes()...), nil
}
