package kvstore

import (
	"io"
	"net"
	"strconv"
)

// respWriter batches RESP replies for a pipelined connection into a
// writev-style flush. Small replies are framed contiguously into one
// arena buffer; large bulk payloads are referenced in place instead of
// copied. Flush stitches arena spans and referenced payloads into a
// net.Buffers and hands the whole batch to the kernel in one WriteTo —
// on a *net.TCPConn that is a single writev(2) call for a 64-deep
// pipeline's worth of replies, instead of a buffer copy per payload.
//
// Framing is byte-identical to WriteReply, the bufio encoder kept in
// resp_golden_test.go as the reference: the golden tests hold both
// against the same expected bytes.
type respWriter struct {
	dst io.Writer

	arena    []byte
	segs     []respSeg
	curStart int // arena offset where the open span began
	extBytes int // running total of referenced payload bytes

	bufs net.Buffers // reused scratch for Flush
}

// respSeg is one ordered piece of the pending batch: an arena span
// (ext == nil) or a referenced external payload.
type respSeg struct {
	start, end int
	ext        []byte
}

// respZeroCopyMin is the smallest bulk payload worth referencing
// instead of copying: payloads under it are copied into the arena (one
// contiguous write), where the copy is cheaper than an extra iovec
// entry; larger ones ride as their own.
const respZeroCopyMin = 256

// respFlushHighWater caps how much a connection buffers before the
// server forces an early flush mid-pipeline, bounding memory per
// connection and keeping referenced payloads short-lived.
const respFlushHighWater = 256 << 10

func newRESPWriter(dst io.Writer) *respWriter {
	return &respWriter{dst: dst}
}

// writeReply appends one reply to the pending batch. A large bulk
// payload is referenced, not copied, so it must stay unmutated until
// flush: engine replies are immutable stored values or fresh bytes,
// and none aliases the connection's parse arena.
func (w *respWriter) writeReply(r Reply) {
	switch r.Type {
	case SimpleString:
		w.arena = append(w.arena, '+')
		w.arena = append(w.arena, r.Str...)
		w.arena = append(w.arena, '\r', '\n')
	case ErrorReply:
		w.arena = append(w.arena, '-')
		w.arena = append(w.arena, r.Str...)
		w.arena = append(w.arena, '\r', '\n')
	case Integer:
		w.arena = append(w.arena, ':')
		w.arena = strconv.AppendInt(w.arena, r.Int, 10)
		w.arena = append(w.arena, '\r', '\n')
	case BulkString:
		w.writeBulk(r.Bulk)
	case NullBulk:
		w.arena = append(w.arena, "$-1\r\n"...)
	case Array:
		w.writeLen('*', len(r.Array))
		for _, el := range r.Array {
			w.writeReply(el)
		}
	case NullArray:
		w.arena = append(w.arena, "*-1\r\n"...)
	default:
		// An unknown type would corrupt the framing: emit an
		// error reply so the client fails loudly rather than desyncing.
		w.arena = append(w.arena, "-ERR unencodable reply\r\n"...)
	}
}

// writeWindow appends the array reply of an LRANGE window (see
// Engine.lrange) straight from the stored values, with no Reply per
// element: the bytes writeReply(windowReply(win)) would write.
func (w *respWriter) writeWindow(win [][][]byte) {
	n := 0
	for _, seg := range win {
		n += len(seg)
	}
	w.writeLen('*', n)
	for _, seg := range win {
		for _, v := range seg {
			w.writeBulk(v)
		}
	}
}

// writeBulk appends one bulk string, referencing a large payload.
func (w *respWriter) writeBulk(b []byte) {
	w.writeLen('$', len(b))
	if len(b) >= respZeroCopyMin {
		w.extend(b)
	} else {
		w.arena = append(w.arena, b...)
	}
	w.arena = append(w.arena, '\r', '\n')
}

// writeLen appends a "<prefix><n>\r\n" header.
func (w *respWriter) writeLen(prefix byte, n int) {
	w.arena = append(w.arena, prefix)
	w.arena = strconv.AppendInt(w.arena, int64(n), 10)
	w.arena = append(w.arena, '\r', '\n')
}

// extend closes the open arena span and appends b as a referenced
// segment. b must stay valid and unmutated until Flush.
func (w *respWriter) extend(b []byte) {
	w.segs = append(w.segs, respSeg{start: w.curStart, end: len(w.arena)})
	w.segs = append(w.segs, respSeg{ext: b})
	w.curStart = len(w.arena)
	w.extBytes += len(b)
}

// pending reports the batched byte count awaiting Flush in O(1) — the
// server consults it after every command, so walking the segment list
// here would make a deep pipeline quadratic. Arena spans partition
// [0, len(arena)), so arena length plus the referenced-payload total
// is the whole batch.
func (w *respWriter) pending() int {
	return len(w.arena) + w.extBytes
}

// Flush writes the whole pending batch and resets. The segment list is
// resolved against the arena only now — appends may have moved the
// backing array, so spans hold offsets, not slices. Returns bytes
// written. A batch with no external segments is a single contiguous
// Write; otherwise net.Buffers gathers every piece (writev on TCP).
func (w *respWriter) flush() (int64, error) {
	if len(w.segs) == 0 {
		// Common case: everything coalesced into one arena span.
		span := w.arena[:len(w.arena)]
		if len(span) == 0 {
			return 0, nil
		}
		n, err := w.dst.Write(span)
		w.reset()
		return int64(n), err
	}
	if w.curStart < len(w.arena) {
		w.segs = append(w.segs, respSeg{start: w.curStart, end: len(w.arena)})
	}
	w.bufs = w.bufs[:0]
	for _, s := range w.segs {
		if s.ext != nil {
			if len(s.ext) > 0 {
				w.bufs = append(w.bufs, s.ext)
			}
		} else if s.end > s.start {
			w.bufs = append(w.bufs, w.arena[s.start:s.end])
		}
	}
	// WriteTo consumes its receiver down to an empty slice with no
	// capacity; restore the header so the next flush reuses the array.
	bufs := w.bufs
	n, err := w.bufs.WriteTo(w.dst)
	w.bufs = bufs
	w.reset()
	return n, err
}

func (w *respWriter) reset() {
	w.arena = w.arena[:0]
	w.segs = w.segs[:0]
	w.curStart = 0
	w.extBytes = 0
	w.bufs = w.bufs[:0]
}
