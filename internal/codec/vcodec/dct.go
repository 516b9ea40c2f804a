package vcodec

// blockSize is the transform block size (8x8, the classic DCT block also
// referenced by the paper's macroblock discussion in §3.2).
const blockSize = 8

// Integer core transform.
//
// The block transform is HEVC's 8-point integer core transform (Budagavi
// et al., "Core Transform Design in the HEVC Standard", IEEE JSTSP 2013):
// the rows of coreMat are the DCT-II basis scaled by 64·√8 ≈ 181 and
// rounded to integers, so one 1D pass has gain ≈ 2^7.5 and the 2D
// transform ≈ 2^15. Both directions run as partial butterflies in int32
// with rounding shifts that depend on the bit depth B:
//
//	forward  rows >> (B-8), columns >> 6   → C ≈ 2^(17-B) · DCT(x)
//	inverse  columns >> 9,  rows >> (23-B) → x ≈ DCT⁻¹(C) / 2^(17-B)
//
// so 8-bit color and 16-bit depth share one coefficient domain: |C| < 2^20
// for any residual in range, and every intermediate of either direction
// stays below 2^31 (see dequant's clamp for the inverse). The remaining
// 2^(17-B) gain is folded into the quantizer (levelScale).
//
// Integer arithmetic is exact, so the encoder's reconstruction, the ladder
// transcoder's, and the decoder's are bit-identical on every architecture.
// (A float transform is not: the Go spec lets the compiler fuse x*y+z, and
// arm64 does, so an amd64 encoder and an arm64 decoder would round their
// reference pictures differently and P-frames would drift.)
var coreMat = [blockSize][blockSize]int32{
	{64, 64, 64, 64, 64, 64, 64, 64},
	{89, 75, 50, 18, -18, -50, -75, -89},
	{83, 36, -36, -83, -83, -36, 36, 83},
	{75, -18, -89, -50, 50, 89, 18, -75},
	{64, -64, -64, 64, 64, -64, -64, 64},
	{50, -89, 18, 75, -75, -18, 89, -50},
	{36, -83, 83, -36, -36, 83, -83, 36},
	{18, -50, 75, -89, 89, -75, 50, -18},
}

// Transform shifts that do not depend on the bit depth.
const (
	fwdShift2 = 6 // forward column pass
	invShift1 = 9 // inverse column pass
)

// coefMax bounds a dequantized coefficient. Legitimate coefficients stay
// below 2^20 + 2^17 (|C| < 2^20 plus half the coarsest step); clamping
// corrupt streams here keeps the inverse's first pass (≤ 479·coefMax)
// inside int32.
const coefMax = 1<<21 - 1

// forward1D runs the 8-point forward partial butterfly over the 8 rows of
// src and writes the result transposed (dst[k*8+j] is coefficient k of
// row j), so two calls transform rows then columns.
func forward1D(src, dst *[blockSize * blockSize]int32, shift uint) {
	add := int32(1) << shift >> 1
	for j := 0; j < blockSize; j++ {
		s := src[j*blockSize : j*blockSize+blockSize : j*blockSize+blockSize]
		e0, o0 := s[0]+s[7], s[0]-s[7]
		e1, o1 := s[1]+s[6], s[1]-s[6]
		e2, o2 := s[2]+s[5], s[2]-s[5]
		e3, o3 := s[3]+s[4], s[3]-s[4]
		ee0, eo0 := e0+e3, e0-e3
		ee1, eo1 := e1+e2, e1-e2
		dst[0*blockSize+j] = (64*ee0 + 64*ee1 + add) >> shift
		dst[4*blockSize+j] = (64*ee0 - 64*ee1 + add) >> shift
		dst[2*blockSize+j] = (83*eo0 + 36*eo1 + add) >> shift
		dst[6*blockSize+j] = (36*eo0 - 83*eo1 + add) >> shift
		dst[1*blockSize+j] = (89*o0 + 75*o1 + 50*o2 + 18*o3 + add) >> shift
		dst[3*blockSize+j] = (75*o0 - 18*o1 - 89*o2 - 50*o3 + add) >> shift
		dst[5*blockSize+j] = (50*o0 - 89*o1 + 18*o2 + 75*o3 + add) >> shift
		dst[7*blockSize+j] = (18*o0 - 50*o1 + 75*o2 - 89*o3 + add) >> shift
	}
}

// inverse1D runs the 8-point inverse partial butterfly over columns
// 0..lines-1 of src (column j is src[k*8+j], k = 0..7) and writes each
// result as row j of dst — transposed again, so two calls invert columns
// then rows. With half set, inputs 4..7 of every column must be zero and
// their terms are skipped: dropping products with zero is exact.
func inverse1D(src, dst *[blockSize * blockSize]int32, lines int, half bool, shift uint) {
	add := int32(1) << shift >> 1
	for j := 0; j < lines; j++ {
		s0, s1 := src[0*blockSize+j], src[1*blockSize+j]
		s2, s3 := src[2*blockSize+j], src[3*blockSize+j]
		var o0, o1, o2, o3, eo0, eo1, ee0, ee1 int32
		if half {
			o0 = 89*s1 + 75*s3
			o1 = 75*s1 - 18*s3
			o2 = 50*s1 - 89*s3
			o3 = 18*s1 - 50*s3
			eo0, eo1 = 83*s2, 36*s2
			ee0 = 64 * s0
			ee1 = ee0
		} else {
			s4, s5 := src[4*blockSize+j], src[5*blockSize+j]
			s6, s7 := src[6*blockSize+j], src[7*blockSize+j]
			o0 = 89*s1 + 75*s3 + 50*s5 + 18*s7
			o1 = 75*s1 - 18*s3 - 89*s5 - 50*s7
			o2 = 50*s1 - 89*s3 + 18*s5 + 75*s7
			o3 = 18*s1 - 50*s3 + 75*s5 - 89*s7
			eo0 = 83*s2 + 36*s6
			eo1 = 36*s2 - 83*s6
			ee0 = 64*s0 + 64*s4
			ee1 = 64*s0 - 64*s4
		}
		e0, e3 := ee0+eo0, ee0-eo0
		e1, e2 := ee1+eo1, ee1-eo1
		d := dst[j*blockSize : j*blockSize+blockSize : j*blockSize+blockSize]
		d[0] = (e0 + o0 + add) >> shift
		d[1] = (e1 + o1 + add) >> shift
		d[2] = (e2 + o2 + add) >> shift
		d[3] = (e3 + o3 + add) >> shift
		d[4] = (e3 - o3 + add) >> shift
		d[5] = (e2 - o2 + add) >> shift
		d[6] = (e1 - o1 + add) >> shift
		d[7] = (e0 - o0 + add) >> shift
	}
}

// forwardTransform replaces the residual block b (samples of bitDepth
// bits, row-major) with its coefficients (row = vertical frequency).
func forwardTransform(b *[blockSize * blockSize]int32, bitDepth int) {
	var tmp [blockSize * blockSize]int32
	forward1D(b, &tmp, uint(bitDepth-8))
	forward1D(&tmp, b, fwdShift2)
}

// inverseTransform replaces the dequantized coefficient block b with its
// residual. Coefficients in rows beyond kr or columns beyond kc must be
// zero. The passes skip what those bounds prove zero — whole columns, and
// the upper half of a butterfly's inputs — which is exact, so any bounds
// at or past the last populated row and column give the same result as
// kr = kc = 7.
func inverseTransform(b *[blockSize * blockSize]int32, kr, kc, bitDepth int) {
	var tmp [blockSize * blockSize]int32
	inverse1D(b, &tmp, kc+1, kr < blockSize/2, invShift1)
	inverse1D(&tmp, b, blockSize, kc < blockSize/2, uint(23-bitDepth))
}

// dcResidual is the constant residual of a block whose only nonzero
// coefficient is the DC term dc: inverseTransform's two passes reduced to
// one sample each, bit-identical to running the full kernel.
func dcResidual(dc int32, bitDepth int) int32 {
	const add1 = 1 << invShift1 >> 1
	shift2 := uint(23 - bitDepth)
	u := (64*dc + add1) >> invShift1
	return (64*u + int32(1)<<shift2>>1) >> shift2
}

// zigzag is the coefficient scan order: low frequencies first so trailing
// zeros cluster for the entropy coder.
var zigzag = buildZigzag()

// zigzagRow[k] and zigzagCol[k] are the coefficient row (vertical
// frequency) and column (horizontal frequency) of scan position k.
var zigzagRow, zigzagCol = func() (r, c [blockSize * blockSize]int) {
	for k, zi := range zigzag {
		r[k], c[k] = zi/blockSize, zi%blockSize
	}
	return r, c
}()

func buildZigzag() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[idx] = y*blockSize + (s - y)
				idx++
			}
		} else { // down-left
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[idx] = (s-x)*blockSize + x
				idx++
			}
		}
	}
	return order
}

// maxQP bounds the quantization parameter (Config.Validate enforces it).
const maxQP = 51

// levelScale is HEVC's inverse-quantization table: the step of QP r (mod
// 6) in units of 1/64, within 0.8% of 64·2^((r-4)/6).
var levelScale = [6]int32{40, 45, 51, 57, 64, 72}

// quantizer maps between transform coefficients and coded levels at one
// QP. The step doubles every 6 QP like H.264/H.265 (QP 4 is a step of 1.0
// for 8-bit samples), and — as in H.265 — QP is relative to full scale: a
// 16-bit plane's step is 256x an 8-bit plane's in sample units.
// That is the codec property LiVo's depth scaling exploits (§3.2): values
// must be spread across the full 16-bit range or the effective
// quantization bins swallow neighbouring depths (Fig A.1). The transform's
// 2^(17-B) coefficient gain makes the step in coefficient units
// independent of B, so it is a pure integer: levelScale[qp%6] << (qp/6+3).
//
// Dequantization (the decoder's half) is one integer multiply and clamp.
// Quantization rounds to the nearest level with a 32-bit fixed-point
// reciprocal — also integer, so the encoder's decisions are as portable as
// its reconstruction.
type quantizer struct {
	step  int32 // coefficient units per level
	recip int64 // ≈ 2^32 / step
}

func newQuantizer(qp int) quantizer {
	step := levelScale[qp%6] << (qp/6 + 3)
	return quantizer{step: step, recip: (1<<32 + int64(step)/2) / int64(step)}
}

// quant returns the level nearest to coefficient c, rounding half away
// from zero (exact up to the reciprocal's 2^-32 relative error).
func (q quantizer) quant(c int32) int32 {
	if c < 0 {
		return -int32((int64(-c)*q.recip + 1<<31) >> 32)
	}
	return int32((int64(c)*q.recip + 1<<31) >> 32)
}

// dequant returns the coefficient a level reconstructs to, clamped to
// ±coefMax.
func (q quantizer) dequant(level int32) int32 {
	v := int64(level) * int64(q.step)
	if v > coefMax {
		return coefMax
	}
	if v < -coefMax {
		return -coefMax
	}
	return int32(v)
}
