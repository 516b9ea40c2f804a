package vcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// refForward is the forward core transform as a plain int64 matrix
// product with the same per-pass rounding shifts: no butterfly, and no
// intermediate that could overflow.
func refForward(x *[blockSize * blockSize]int32, bitDepth int) [blockSize * blockSize]int64 {
	pass := func(in *[blockSize * blockSize]int64, shift uint) (out [blockSize * blockSize]int64) {
		add := int64(1) << shift >> 1
		for j := 0; j < blockSize; j++ { // row j of in → column j of out
			for k := 0; k < blockSize; k++ {
				var s int64
				for n := 0; n < blockSize; n++ {
					s += int64(coreMat[k][n]) * in[j*blockSize+n]
				}
				out[k*blockSize+j] = (s + add) >> shift
			}
		}
		return out
	}
	var in [blockSize * blockSize]int64
	for i, v := range x {
		in[i] = int64(v)
	}
	t := pass(&in, uint(bitDepth-8))
	return pass(&t, fwdShift2)
}

// refInverse is inverseTransform as an int64 matrix product.
func refInverse(c *[blockSize * blockSize]int32, bitDepth int) [blockSize * blockSize]int64 {
	pass := func(in *[blockSize * blockSize]int64, shift uint) (out [blockSize * blockSize]int64) {
		add := int64(1) << shift >> 1
		for j := 0; j < blockSize; j++ { // column j of in → row j of out
			for n := 0; n < blockSize; n++ {
				var s int64
				for k := 0; k < blockSize; k++ {
					s += int64(coreMat[k][n]) * in[k*blockSize+j]
				}
				out[j*blockSize+n] = (s + add) >> shift
			}
		}
		return out
	}
	var in [blockSize * blockSize]int64
	for i, v := range c {
		in[i] = int64(v)
	}
	t := pass(&in, invShift1)
	return pass(&t, uint(23-bitDepth))
}

// extremeBlocks returns full-scale residual patterns for bitDepth:
// ±max checkerboards (both phases), constant ±max, and horizontal,
// vertical, and diagonal ramps spanning -max..max.
func extremeBlocks(bitDepth int) [][blockSize * blockSize]int32 {
	m := int32(1)<<bitDepth - 1
	var out [][blockSize * blockSize]int32
	for _, sign := range []int32{1, -1} {
		var cb, flat, rh, rv, rd [blockSize * blockSize]int32
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				i := y*blockSize + x
				cb[i] = sign * m * (1 - 2*int32((x+y)%2))
				flat[i] = sign * m
				ramp := func(t int) int32 { return sign * (-m + int32(t)*2*m/7) }
				rh[i], rv[i] = ramp(x), ramp(y)
				rd[i] = sign * (-m + int32(x+y)*2*m/14)
			}
		}
		out = append(out, cb, flat, rh, rv, rd)
	}
	return out
}

// TestTransformNoOverflow checks the int32 butterflies against the int64
// reference on the worst inputs each direction can see: full-scale 8-bit
// and 16-bit residual patterns forward, and inverse on the largest
// dequantized levels — ±coefMax everywhere, with signs aligned to each
// pair of basis functions, plus the forward outputs of the extreme
// patterns requantized at the finest and coarsest steps.
func TestTransformNoOverflow(t *testing.T) {
	for _, bd := range []int{8, 16} {
		var coefs [][blockSize * blockSize]int32
		for pi, x := range extremeBlocks(bd) {
			want := refForward(&x, bd)
			got := x
			forwardTransform(&got, bd)
			for i := range got {
				if int64(got[i]) != want[i] {
					t.Fatalf("%d-bit pattern %d: forward[%d] = %d, want %d", bd, pi, i, got[i], want[i])
				}
				if got[i] >= 1<<20 || got[i] <= -1<<20 {
					t.Fatalf("%d-bit pattern %d: coefficient %d outside ±2^20", bd, pi, got[i])
				}
			}
			for _, qp := range []int{0, maxQP} {
				q := newQuantizer(qp)
				var c [blockSize * blockSize]int32
				for i := range c {
					c[i] = q.dequant(q.quant(got[i]))
				}
				coefs = append(coefs, c)
			}
		}
		// ±coefMax with signs aligned to basis columns n and m: output
		// sample (n, m) then reaches the largest magnitude either pass
		// can produce (479·coefMax before the first shift).
		sign := func(v int32) int32 {
			if v < 0 {
				return -1
			}
			return 1
		}
		for n := 0; n < blockSize; n++ {
			for m := 0; m < blockSize; m++ {
				var c [blockSize * blockSize]int32
				for k := 0; k < blockSize; k++ {
					for j := 0; j < blockSize; j++ {
						c[k*blockSize+j] = coefMax * sign(coreMat[k][n]) * sign(coreMat[j][m])
					}
				}
				coefs = append(coefs, c)
			}
		}
		for ci, c := range coefs {
			want := refInverse(&c, bd)
			got := c
			inverseTransform(&got, blockSize-1, blockSize-1, bd)
			for i := range got {
				if int64(got[i]) != want[i] {
					t.Fatalf("%d-bit coefficients %d: inverse[%d] = %d, want %d", bd, ci, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInverseSpecialCasesMatchDense checks that the row/column-bounded
// and DC-only inverse paths are exact special cases of the dense kernel,
// for random sparse blocks at both bit depths.
func TestInverseSpecialCasesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, bd := range []int{8, 16} {
		for trial := 0; trial < 3000; trial++ {
			var c [blockSize * blockSize]int32
			kr, kc := rng.Intn(blockSize), rng.Intn(blockSize)
			for r := 0; r <= kr; r++ {
				for cc := 0; cc <= kc; cc++ {
					if rng.Intn(3) == 0 {
						c[r*blockSize+cc] = rng.Int31n(2*coefMax+1) - coefMax
					}
				}
			}
			dense := c
			inverseTransform(&dense, blockSize-1, blockSize-1, bd)
			bounded := c
			inverseTransform(&bounded, kr, kc, bd)
			if bounded != dense {
				t.Fatalf("%d-bit trial %d: bounded (kr=%d, kc=%d) inverse differs from dense", bd, trial, kr, kc)
			}

			dc := [blockSize * blockSize]int32{c[0]}
			inverseTransform(&dc, blockSize-1, blockSize-1, bd)
			want := dcResidual(c[0], bd)
			for i, v := range dc {
				if v != want {
					t.Fatalf("%d-bit DC %d: dense sample %d = %d, dcResidual = %d", bd, c[0], i, v, want)
				}
			}
		}
	}
}

// TestGatherFastPathMatchesClamped compares gather against its clamping
// loop at random positions, at every edge and corner, and one block past
// each edge, on planes smaller than, equal to, and larger than a block.
func TestGatherFastPathMatchesClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, dims := range [][2]int{{37, 29}, {8, 8}, {5, 3}, {64, 48}} {
		w, h := dims[0], dims[1]
		plane := make([]int32, w*h)
		for i := range plane {
			plane[i] = rng.Int31()
		}
		var pos [][2]int
		for _, x := range []int{-blockSize - 1, -blockSize, -1, 0, 1, w - blockSize - 1, w - blockSize, w - blockSize + 1, w - 1, w, w + 1} {
			for _, y := range []int{-blockSize - 1, -blockSize, -1, 0, 1, h - blockSize - 1, h - blockSize, h - blockSize + 1, h - 1, h, h + 1} {
				pos = append(pos, [2]int{x, y})
			}
		}
		for i := 0; i < 2000; i++ {
			pos = append(pos, [2]int{rng.Intn(w+4*blockSize) - 2*blockSize, rng.Intn(h+4*blockSize) - 2*blockSize})
		}
		for _, p := range pos {
			var fast, slow [blockSize * blockSize]int32
			gather(plane, w, h, p[0], p[1], &fast)
			gatherClamped(plane, w, h, p[0], p[1], &slow)
			if fast != slow {
				t.Fatalf("%dx%d plane: gather at (%d,%d) differs from the clamped path", w, h, p[0], p[1])
			}
		}
	}
}

// goldenClip encodes a fixed synthetic clip through a two-rung ladder
// (rung 1 is the requantization transcode at +8 QP) and returns the
// SHA-256 of every reconstruction stock Decoders produce for each rung,
// after checking rung 0's against the encoder's own reconstruction. The
// clip mixes key and delta frames, motion search, odd dimensions, and
// (for color) 4:2:0. Its source is integer-only (no math.Sin), so the
// hashes do not depend on a platform's float library either.
func goldenClip(t *testing.T, cfg Config) (rung0, rung1 string) {
	t.Helper()
	cfg.GOP = 4
	cfg.SearchRadius = 1
	le, err := NewLadderEncoder(cfg, []Rung{{ID: 0}, {ID: 1, QPOffset: 8}})
	if err != nil {
		t.Fatal(err)
	}
	dec0, _ := NewDecoder(cfg)
	dec1, _ := NewDecoder(cfg)
	h0, h1 := sha256.New(), sha256.New()
	rng := rand.New(rand.NewSource(66))
	src := NewFrame(cfg.Width, cfg.Height, cfg.NumPlanes)
	for i := 0; i < 8; i++ {
		synthLadderFrame(src, i, rng)
		if cfg.BitDepth == 16 {
			for _, pl := range src.Planes {
				for j := range pl {
					pl[j] *= 257 // 0..255 → 0..65535
				}
			}
		}
		pkts, err := le.EncodeLadderQP(src, nil, 20)
		if err != nil {
			t.Fatal(err)
		}
		got0, err := dec0.Decode(pkts[0])
		if err != nil {
			t.Fatal(err)
		}
		requireFramesEqual(t, le.Encoder().LastRecon(), got0, "rung 0 encoder recon vs decoder")
		hashFrameInto(h0, got0)
		got1, err := dec1.Decode(pkts[1])
		if err != nil {
			t.Fatal(err)
		}
		hashFrameInto(h1, got1)
	}
	return hex.EncodeToString(h0.Sum(nil)), hex.EncodeToString(h1.Sum(nil))
}

func hashFrameInto(hs hash.Hash, f *Frame) {
	var b [4]byte
	for _, pl := range f.Planes {
		for _, v := range pl {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			hs.Write(b[:])
		}
	}
}

func requireFramesEqual(t *testing.T, a, b *Frame, what string) {
	t.Helper()
	for p := range a.Planes {
		for i := range a.Planes[p] {
			if a.Planes[p][i] != b.Planes[p][i] {
				t.Fatalf("%s: plane %d sample %d: %d vs %d", what, p, i, a.Planes[p][i], b.Planes[p][i])
			}
		}
	}
}

// Golden reconstruction hashes. The codec's reconstruction is pure integer
// arithmetic, so these hold on every architecture; a mismatch means the
// bitstream or the reconstruction changed (update them only for an
// intended format change) or a platform computes differently.
const (
	goldenColor8       = "31eae954445030266fc179b44769d467ca72820143f0c850a0da8547d7b6f4ef"
	goldenColor8Rung1  = "d4a2da3d39cf749f5c5f631d7ac1f6a2136a2ffadce81811792cbf8dac464820"
	goldenDepth16      = "2ec8c8ea7b1f75bb186f2e707249ad34757a08c419ccc17f3140549a232c2748"
	goldenDepth16Rung1 = "b2551251a96d0ad39642dc71d5cc60aee81ad431ca1a3a343ca16c6d193acd92"
)

func TestGoldenReconstruction(t *testing.T) {
	const w, h = 61, 45
	c0, c1 := goldenClip(t, ColorConfig(w, h))
	d0, d1 := goldenClip(t, DepthConfig(w, h))
	for _, g := range []struct{ name, got, want string }{
		{"8-bit color", c0, goldenColor8},
		{"8-bit color, ladder rung 1", c1, goldenColor8Rung1},
		{"16-bit depth", d0, goldenDepth16},
		{"16-bit depth, ladder rung 1", d1, goldenDepth16Rung1},
	} {
		if g.got != g.want {
			t.Errorf("%s reconstruction hash %s, want %s", g.name, g.got, g.want)
		}
	}
}
