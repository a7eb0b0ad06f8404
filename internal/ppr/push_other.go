//go:build !amd64

package ppr

// useAVX2 is false off amd64: the batched push pass always runs pushRow.
var useAVX2 = false

// pushRowAVX2 exists on amd64 only; push never calls it here.
func pushRowAVX2(cols []int32, norms []float64, c float64, x *lanes, m uint8, nxt []lanes, nxtMask []uint8, touched []uint64) {
	panic("ppr: the AVX2 row kernel is amd64 only")
}
