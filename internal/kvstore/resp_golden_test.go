package kvstore

import (
	"bufio"
	"fmt"
	"strconv"
)

func writeArrayHeader(w *bufio.Writer, n int) error {
	return writeLen(w, '*', n)
}

// WriteReply encodes a Reply in RESP framing through a bufio.Writer.
// The server frames replies with respWriter; this is the golden encoder
// respWriter is compared with, and what the codec and fuzz tests feed
// ReadReply.
func WriteReply(w *bufio.Writer, r Reply) error {
	switch r.Type {
	case SimpleString:
		if err := w.WriteByte('+'); err != nil {
			return err
		}
		if _, err := w.WriteString(r.Str); err != nil {
			return err
		}
		return writeCRLF(w)
	case ErrorReply:
		if err := w.WriteByte('-'); err != nil {
			return err
		}
		if _, err := w.WriteString(r.Str); err != nil {
			return err
		}
		return writeCRLF(w)
	case Integer:
		if err := w.WriteByte(':'); err != nil {
			return err
		}
		if r.Int < 0 {
			if _, err := w.WriteString(strconv.FormatInt(r.Int, 10)); err != nil {
				return err
			}
		} else if err := writeUint(w, uint64(r.Int)); err != nil {
			return err
		}
		return writeCRLF(w)
	case BulkString:
		return writeBulk(w, r.Bulk)
	case NullBulk:
		_, err := w.WriteString("$-1\r\n")
		return err
	case Array:
		if err := writeArrayHeader(w, len(r.Array)); err != nil {
			return err
		}
		for _, el := range r.Array {
			if err := WriteReply(w, el); err != nil {
				return err
			}
		}
		return nil
	case NullArray:
		_, err := w.WriteString("*-1\r\n")
		return err
	default:
		return fmt.Errorf("%w: unknown reply type %d", ErrProtocol, int(r.Type))
	}
}
