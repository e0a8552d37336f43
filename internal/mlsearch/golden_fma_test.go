//go:build !amd64 || amd64.v3

package mlsearch

// goldenMayFuse reports that the compiler may contract a*b+c into a
// fused multiply-add on this target (every non-amd64 port, and amd64 at
// GOAMD64=v3 and above), which changes float64 last bits.
const goldenMayFuse = true
