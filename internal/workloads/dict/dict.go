// Package dict numbers a partition's distinct uint32 values — tree
// labels for the subtree miner, item ids for the itemset miner — so the
// miners' inner loops index arrays by code instead of hashing values.
package dict

import (
	"math/bits"
	"slices"
)

// Dict numbers a set of distinct values 0 … d−1 in ascending order:
// Values[c] is code c's value. index is an open-addressed table from
// value to code whose length is a power of two at least twice d, so a
// lookup is a multiply and, nearly always, one probe. Both are sized by
// the number of distinct values, never by the values themselves, which
// are arbitrary uint32s. A Dict is read-only after Build.
type Dict struct {
	Values []uint32
	index  []slot
	shift  uint
}

// slot is one index entry; code −1 marks an empty slot.
type slot struct {
	value uint32
	code  int32
}

// hashMul is the Fibonacci-hashing multiplier of the index: the top
// bits of v·hashMul depend on every bit of v.
const hashMul = 0x9E3779B97F4A7C15

// initSlots is the index length Build starts from: 32 values fit
// without growing it.
const initSlots = 64

// newIndex allocates an empty index of 2^b slots.
func (d *Dict) newIndex(b int) {
	d.index = make([]slot, 1<<b)
	for i := range d.index {
		d.index[i].code = -1
	}
	d.shift = uint(64 - b)
}

// find returns the slot holding value v, or the empty slot where v
// belongs.
func (d *Dict) find(v uint32) int {
	mask := len(d.index) - 1
	for h := int(uint64(v) * hashMul >> d.shift); ; h = (h + 1) & mask {
		if s := d.index[h]; s.code < 0 || s.value == v {
			return h
		}
	}
}

// Code returns the code of value v, −1 if no list held it.
func (d *Dict) Code(v uint32) int32 { return d.index[d.find(v)].code }

// Build numbers the distinct values of lists 0 … n−1, list(i) being
// list i: it collects them in the index (code 0 marks a value met, and
// the index doubles whenever it is half full), sorts the distinct ones
// and writes their ranks back as codes.
func (d *Dict) Build(n int, list func(i int) []uint32) {
	d.newIndex(bits.Len(initSlots - 1))
	seen := 0
	for i := 0; i < n; i++ {
		for _, v := range list(i) {
			h := d.find(v)
			if d.index[h].code >= 0 {
				continue
			}
			d.index[h] = slot{v, 0}
			if seen++; 2*seen > len(d.index) {
				d.grow()
			}
		}
	}
	d.Values = make([]uint32, 0, seen)
	for _, s := range d.index {
		if s.code >= 0 {
			d.Values = append(d.Values, s.value)
		}
	}
	slices.Sort(d.Values)
	for c, v := range d.Values {
		d.index[d.find(v)].code = int32(c)
	}
}

// grow doubles the index and rehashes the entries it holds.
func (d *Dict) grow() {
	old := d.index
	d.newIndex(bits.Len(uint(len(old))))
	for _, s := range old {
		if s.code >= 0 {
			d.index[d.find(s.value)] = s
		}
	}
}

// Encode writes the code of every value of lists 0 … n−1, list after
// list, to dst: one index probe per value. dst must have room for them
// all, and C must hold every code below len(d.Values); every value
// must be one Build numbered.
func Encode[C uint16 | int32](d *Dict, dst []C, n int, list func(i int) []uint32) {
	k := 0
	for i := 0; i < n; i++ {
		for _, v := range list(i) {
			dst[k] = C(d.Code(v))
			k++
		}
	}
}
