//go:build !amd64

package likelihood

// Non-amd64 builds have no vector combine; the engine never allocates
// the broadcast table and always takes the scalar path.
const useAVX2 = false

func combine2F64(dst, a, b []float64, ma, mb *[4][4]float64, tab *[33][4]float64,
	dsc, asc, bsc []int32, npad, lo, n int) {
	segCombine2(dst, a, b, ma, mb, dsc, asc, bsc, npad, lo, n)
}
