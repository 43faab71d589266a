package graphcomp_test

import (
	"fmt"

	"pareto/internal/workloads/graphcomp"
)

// Encode two near-identical adjacency lists: the second copies the
// first through the reference window, so the pair compresses far
// below its raw 32-bit-per-edge size.
func ExampleEncode() {
	ids := []uint32{100, 101}
	lists := [][]uint32{
		{7, 11, 13, 17, 19, 23, 29, 31},
		{7, 11, 13, 17, 19, 23, 29, 37},
	}
	enc, err := graphcomp.Encode(ids, lists, graphcomp.Config{Window: 7})
	if err != nil {
		panic(err)
	}
	_, back, err := graphcomp.Decode(enc)
	if err != nil {
		panic(err)
	}
	raw := graphcomp.RawBits(ids, lists)
	fmt.Printf("decoded %d lists, compressed %d of %d raw bits\n",
		len(back), enc.BitLen, raw)
	// Output:
	// decoded 2 lists, compressed 111 of 640 raw bits
}
