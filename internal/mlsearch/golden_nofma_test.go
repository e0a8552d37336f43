//go:build amd64 && !amd64.v3

package mlsearch

// goldenMayFuse is false on amd64 below GOAMD64=v3: gc emits no fused
// multiply-add there, so float64 results are reproducible to the bit.
const goldenMayFuse = false
