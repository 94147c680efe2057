package passmark

import (
	"math"

	"repro/internal/hw"
)

// The native (iOS) implementations of the CPU and memory workloads: the
// same algorithms as the DEX methods in dex.go, executed as compiled code
// — they pay only the arithmetic cost of each operation, with no
// interpreter dispatch. Tests assert the checksums match the bytecode
// versions, so the Fig. 6 CPU comparison really is interpretation overhead
// and nothing else.

// nativeInteger mirrors dexInteger.
func nativeInteger(c *ctx, n int64) uint64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += 12345
		t := i * 7
		acc ^= t
		d := int64(12345) / 7
		acc += d
		s := i << 1
		acc |= s
	}
	c.ops(hw.OpIntAdd, 5*n) // add/xor/or/shl/loop inc
	c.ops(hw.OpIntMul, n)
	c.ops(hw.OpIntDiv, n)
	c.ops(hw.OpBranch, n)
	return uint64(acc)
}

// nativeFloating mirrors dexFloating.
func nativeFloating(c *ctx, n int64) uint64 {
	f := 10001.0 / 10000.0
	acc := 1.0
	for i := int64(0); i < n; i++ {
		// The conversion rounds the product, so no architecture may fuse
		// it with the add (the DEX build rounds it into a register too).
		acc = float64(acc * f)
		acc = acc + f
		acc = acc / f
	}
	c.ops(hw.OpFloatMul, n)
	c.ops(hw.OpFloatAdd, n)
	c.ops(hw.OpFloatDiv, n)
	c.ops(hw.OpIntAdd, n)
	c.ops(hw.OpBranch, n)
	return math.Float64bits(acc)
}

// nativePrimes mirrors dexPrimes (trial division counting primes < n).
func nativePrimes(c *ctx, n int64) uint64 {
	var count, innerIters int64
	for i := int64(2); i < n; i++ {
		prime := int64(1)
		for j := int64(2); j*j <= i; j++ {
			innerIters++
			if i%j == 0 {
				prime = 0
				break
			}
		}
		count += prime
	}
	c.ops(hw.OpIntMul, innerIters)
	c.ops(hw.OpIntDiv, innerIters)
	c.ops(hw.OpBranch, 2*innerIters+2*(n-2))
	c.ops(hw.OpIntAdd, innerIters+2*(n-2))
	return uint64(count)
}

// nativeStringSort mirrors dexStringSort.
func nativeStringSort(c *ctx, n int64) uint64 {
	arr := make([]int64, n)
	seed := int64(12345)
	for i := int64(0); i < n; i++ {
		seed = seed*1103515245 + 12345
		arr[i] = seed & 65535
	}
	c.ops(hw.OpIntMul, n)
	c.ops(hw.OpIntAdd, 2*n)
	c.ops(hw.OpStore, n)
	// Bubble sort: n-1 passes over n-1 elements, same as the bytecode.
	var compares, swaps int64
	for pass := int64(0); pass < n-1; pass++ {
		for j := int64(0); j < n-1; j++ {
			compares++
			if arr[j] > arr[j+1] {
				arr[j], arr[j+1] = arr[j+1], arr[j]
				swaps++
			}
		}
	}
	c.ops(hw.OpLoad, 2*compares)
	c.ops(hw.OpBranch, 2*compares)
	c.ops(hw.OpStore, 2*swaps)
	c.ops(hw.OpIntAdd, compares)
	var sum int64
	for _, v := range arr {
		sum += v
	}
	c.ops(hw.OpLoad, n)
	c.ops(hw.OpIntAdd, n)
	return uint64(sum)
}

// nativeEncrypt mirrors dexEncrypt (RC4-style keystream).
func nativeEncrypt(c *ctx, n int64) uint64 {
	var s [256]int64
	for i := range s {
		s[i] = int64(i)
	}
	var acc int64
	i, j := int64(0), int64(0)
	for b := int64(0); b < n; b++ {
		i = (i + 1) & 255
		j = (j + s[i]) & 255
		s[i], s[j] = s[j], s[i]
		k := s[(s[i]+s[j])&255]
		acc ^= k
	}
	c.ops(hw.OpIntAdd, 6*n)
	c.ops(hw.OpLoad, 3*n)
	c.ops(hw.OpStore, 2*n)
	c.ops(hw.OpBranch, n)
	return uint64(acc)
}

// nativeCompress mirrors dexCompress (run-length scan).
func nativeCompress(c *ctx, n int64) uint64 {
	seed := int64(12345)
	prev := int64(-1)
	var runs int64
	for i := int64(0); i < n; i++ {
		seed = seed*1103515245 + 12345
		v := (seed >> 16) & 7
		if v != prev {
			runs++
			prev = v
		}
	}
	c.ops(hw.OpIntMul, n)
	c.ops(hw.OpIntAdd, 3*n)
	c.ops(hw.OpBranch, 2*n)
	return uint64(runs)
}

// nativeMemWrite mirrors dexMemWrite: 8 streaming store passes. Native
// code runs at DRAM bandwidth, which is the whole Fig. 6 memory story.
func nativeMemWrite(c *ctx, elements int64) uint64 {
	const passes = 8
	bytes := elements * 8 * passes
	c.t.Charge(c.sys.Kernel.Device().Mem.WriteTime(bytes))
	c.ops(hw.OpIntAdd, elements*passes/8) // unrolled loop bookkeeping
	return 0
}

// nativeMemRead mirrors dexMemRead: one fill pass then 8 read passes.
func nativeMemRead(c *ctx, elements int64) uint64 {
	const passes = 8
	mem := c.sys.Kernel.Device().Mem
	c.t.Charge(mem.WriteTime(elements * 8))
	c.t.Charge(mem.ReadTime(elements * 8 * passes))
	c.ops(hw.OpIntAdd, elements*passes/8)
	// sum of 0..elements-1, passes times — matches the bytecode result.
	return uint64(passes * (elements * (elements - 1) / 2))
}
