package lz77_test

import (
	"bytes"
	"fmt"

	"pareto/internal/workloads/lz77"
)

// Stream records through an encoder, then decode its token stream.
func ExampleWriter() {
	var out bytes.Buffer
	w, err := lz77.NewWriter(&out, lz77.Config{})
	if err != nil {
		panic(err)
	}
	var data []byte
	for i := 0; i < 500; i++ {
		rec := []byte(fmt.Sprintf("analytics partition %d ", i%10))
		data = append(data, rec...)
		if _, err := w.Write(rec); err != nil {
			panic(err)
		}
	}
	st, err := w.Close()
	if err != nil {
		panic(err)
	}
	back, err := lz77.Decompress(out.Bytes())
	if err != nil {
		panic(err)
	}
	fmt.Printf("roundtrip ok: %v, ratio > 50x: %v\n",
		bytes.Equal(back, data), st.RawLen > 50*st.OutLen)
	// Output:
	// roundtrip ok: true, ratio > 50x: true
}
