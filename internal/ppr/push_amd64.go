package ppr

// useAVX2 selects pushRowAVX2 for the batched push pass. It is set once,
// from CPUID and XGETBV; tests clear it to run the portable pushRow.
var useAVX2 = cpuHasAVX2()

// pushRowAVX2 is pushRow in AVX2: each edge's w = c*norms[k] is formed as
// a scalar and broadcast, and the eight lanes of nxt[cols[k]] take two
// 256-bit multiplies and two 256-bit adds. It uses no fused multiply-add,
// so every lane rounds w*x[l] and then the sum, exactly as pushRow does.
// It checks no bounds: every cols entry must index nxt, nxtMask and the
// touched bitset, and norms must be as long as cols (a CSR row is).
//
//go:noescape
func pushRowAVX2(cols []int32, norms []float64, c float64, x *lanes, m uint8, nxt []lanes, nxtMask []uint8, touched []uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
