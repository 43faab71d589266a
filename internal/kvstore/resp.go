// Package kvstore is a from-scratch Redis-compatible key-value store:
// a storage engine, a TCP server speaking the RESP wire protocol, a
// client with request pipelining, and a fetch-and-increment global
// barrier.
//
// It reproduces the substrate of paper §IV: the partitioning framework
// runs one store instance per cluster node (never a managed "cluster
// mode", because the framework must control exactly which key lands on
// which node), stores each partition as a list of length-prefixed raw
// byte sequences so a whole partition moves in one request, batches
// requests through pipelining, and synchronizes phases with a global
// barrier built on the store's atomic INCR.
//
// # Memory management on the wire
//
// There is one decoder per direction. Replies (ReadReply) decode into
// fresh memory the caller owns forever: every client read retains its
// payload. Commands (ReadCommandInto with a CommandBuffer) parse into
// caller-provided storage that is recycled on the next call — the
// server's per-connection hot path and AOF replay use it, so
// steady-state request handling does not allocate.
// Anything that retains command bytes past one request (the engine's
// SET, RPUSH, …) must copy at that boundary; see engine.go.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Reply is one RESP value: a simple string, error, integer, bulk
// string (possibly nil), or array (possibly nil).
type Reply struct {
	Type  ReplyType
	Str   string  // simple string or error text
	Int   int64   // integer
	Bulk  []byte  // bulk payload; nil for null bulk
	Array []Reply // array elements; nil for null array
}

// ReplyType discriminates RESP value kinds.
type ReplyType int

// RESP value kinds.
const (
	SimpleString ReplyType = iota
	ErrorReply
	Integer
	BulkString
	NullBulk
	Array
	NullArray
)

// Err converts an error reply into a Go error, nil otherwise.
func (r Reply) Err() error {
	if r.Type == ErrorReply {
		return fmt.Errorf("kvstore: server error: %s", r.Str)
	}
	return nil
}

// String renders the reply for diagnostics.
func (r Reply) String() string {
	switch r.Type {
	case SimpleString:
		return r.Str
	case ErrorReply:
		return "ERR " + r.Str
	case Integer:
		return strconv.FormatInt(r.Int, 10)
	case BulkString:
		return string(r.Bulk)
	case NullBulk:
		return "(nil)"
	case Array:
		return fmt.Sprintf("array[%d]", len(r.Array))
	case NullArray:
		return "(nil array)"
	default:
		return fmt.Sprintf("reply(%d)", int(r.Type))
	}
}

// Protocol limits guarding against malformed or hostile input.
const (
	// MaxBulkLen is the largest single bulk payload accepted on the
	// wire (1 GiB). A $<n> header beyond it is a protocol error, never
	// an allocation.
	MaxBulkLen = 1 << 30
	// MaxArrayLen is the largest array (and command argument count)
	// accepted on the wire.
	MaxArrayLen = 1 << 20
	// maxLineLen bounds a single header/simple-string line; a longer
	// line is hostile or corrupt, not data.
	maxLineLen = 64 << 10
)

// ErrProtocol reports malformed RESP data on the wire.
var ErrProtocol = errors.New("kvstore: protocol error")

// writeCRLF terminates a RESP line.
func writeCRLF(w *bufio.Writer) error {
	if err := w.WriteByte('\r'); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// writeUint writes n in decimal digit by digit: on the per-command hot
// path this replaces a strconv.Itoa whose result escapes (one small
// allocation per length header).
func writeUint(w *bufio.Writer, n uint64) error {
	if n < 10 {
		return w.WriteByte(byte('0' + n))
	}
	var digits [20]byte
	i := len(digits)
	for n > 0 {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	for ; i < len(digits); i++ {
		if err := w.WriteByte(digits[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeLen writes a "<prefix><decimal n>\r\n" header without
// allocating.
func writeLen(w *bufio.Writer, prefix byte, n int) error {
	if err := w.WriteByte(prefix); err != nil {
		return err
	}
	if err := writeUint(w, uint64(n)); err != nil {
		return err
	}
	return writeCRLF(w)
}

// WriteCommand encodes a command as a RESP array of bulk strings. It
// does not allocate: the name and arguments are framed directly into
// the writer's buffer.
func WriteCommand(w *bufio.Writer, name string, args ...[]byte) error {
	if err := writeLen(w, '*', 1+len(args)); err != nil {
		return err
	}
	if err := writeLen(w, '$', len(name)); err != nil {
		return err
	}
	if _, err := w.WriteString(name); err != nil {
		return err
	}
	if err := writeCRLF(w); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulk(w, a); err != nil {
			return err
		}
	}
	return nil
}

func writeBulk(w *bufio.Writer, b []byte) error {
	if err := writeLen(w, '$', len(b)); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return writeCRLF(w)
}

// parseLen parses the payload of a bulk or array length header (the
// line after its type byte). Exactly "-1" means a RESP null; any other
// negative, non-numeric, or over-limit length is rejected with a clear
// error so a hostile or corrupt header can never drive an allocation.
// So is a leading zero, as Redis rejects it: every accepted header is
// the one WriteCommand and WriteReply would write.
func parseLen(line []byte, max int, what string) (n int, null bool, err error) {
	s := line[1:]
	if len(s) == 2 && s[0] == '-' && s[1] == '1' {
		return 0, true, nil
	}
	if len(s) == 0 {
		return 0, false, fmt.Errorf("%w: empty %s length", ErrProtocol, what)
	}
	if s[0] == '-' {
		return 0, false, fmt.Errorf("%w: negative %s length %q", ErrProtocol, what, s)
	}
	if s[0] == '0' && len(s) > 1 {
		return 0, false, fmt.Errorf("%w: %s length %q has a leading zero", ErrProtocol, what, s)
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false, fmt.Errorf("%w: bad %s length %q", ErrProtocol, what, s)
		}
		n = n*10 + int(c-'0')
		if n > max {
			return 0, false, fmt.Errorf("%w: %s length %q exceeds limit %d", ErrProtocol, what, s, max)
		}
	}
	return n, false, nil
}

// parseInt parses a full-range signed RESP integer without the
// strconv string conversion. Like parseLen it accepts only the
// spelling WriteReply writes: no '+', no leading zero, no "-0".
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || b[0] == '0' && (neg || len(b) > 1) {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (1<<63)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(v), true
	}
	if v == 1<<63 {
		return 0, false
	}
	return int64(v), true
}

// ReadReply decodes one RESP value into freshly allocated memory the
// caller owns. A $<n> header beyond MaxBulkLen is a protocol error
// rather than a gigabyte allocation.
func ReadReply(r *bufio.Reader) (Reply, error) {
	var rep Reply
	if err := readReply(r, &rep); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// readReply decodes into *dst, so the elements of an array are filled
// in place rather than copied out of a callee's frame one by one — a
// large LRANGE reply is mostly elements.
func readReply(r *bufio.Reader, dst *Reply) error {
	line, err := readLine(r)
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return fmt.Errorf("%w: empty line", ErrProtocol)
	}
	switch line[0] {
	case '+':
		*dst = Reply{Type: SimpleString, Str: string(line[1:])}
	case '-':
		*dst = Reply{Type: ErrorReply, Str: string(line[1:])}
	case ':':
		n, ok := parseInt(line[1:])
		if !ok {
			return fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		*dst = Reply{Type: Integer, Int: n}
	case '$':
		n, null, err := parseLen(line, MaxBulkLen, "bulk")
		if err != nil {
			return err
		}
		if null {
			*dst = Reply{Type: NullBulk}
			return nil
		}
		buf, err := readFullN(r, n+2)
		if err != nil {
			return err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		*dst = Reply{Type: BulkString, Bulk: buf[:n]}
	case '*':
		n, null, err := parseLen(line, MaxArrayLen, "array")
		if err != nil {
			return err
		}
		if null {
			*dst = Reply{Type: NullArray}
			return nil
		}
		els := make([]Reply, n)
		for i := range els {
			if err := readReply(r, &els[i]); err != nil {
				return err
			}
		}
		*dst = Reply{Type: Array, Array: els}
	default:
		return fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, line[0])
	}
	return nil
}

// CommandBuffer is the reusable arena ReadCommandInto parses into: one
// flat payload buffer plus recycled argument-slice headers. A server
// connection owns one for its whole lifetime, so steady-state command
// parsing does not allocate.
type CommandBuffer struct {
	data  []byte
	spans []int // flattened (start, end) offset pairs into data
	args  [][]byte
	// id is the command the last ReadCommandInto decoded, resolved while
	// its name bytes were at hand; the server and AOF replay dispatch
	// on it instead of resolving the returned name a second time.
	id cmdID
}

// ReadCommandInto decodes one client command into cb's arena and
// returns the command name plus its arguments. maxBulk bounds each
// argument's size; oversized or negative length headers are protocol
// errors, never allocations. io.EOF is returned unmangled on a clean
// connection close between commands.
//
// Ownership: the returned arguments alias cb's buffer and are valid
// only until the next ReadCommandInto call with the same buffer. A
// consumer that retains argument bytes past one command (a storage
// engine, a queue) must copy them into owned memory at its boundary.
func ReadCommandInto(r *bufio.Reader, cb *CommandBuffer, maxBulk int) (string, [][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return "", nil, err
	}
	if len(line) == 0 {
		return "", nil, fmt.Errorf("%w: empty line", ErrProtocol)
	}
	if line[0] != '*' {
		return "", nil, fmt.Errorf("%w: command must be a nonempty array", ErrProtocol)
	}
	n, null, err := parseLen(line, MaxArrayLen, "array")
	if err != nil {
		return "", nil, err
	}
	if null || n == 0 {
		return "", nil, fmt.Errorf("%w: command must be a nonempty array", ErrProtocol)
	}
	cb.data = cb.data[:0]
	cb.spans = cb.spans[:0]
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if err != nil {
			return "", nil, err
		}
		if len(line) == 0 || line[0] != '$' {
			return "", nil, fmt.Errorf("%w: command element %d not a bulk string", ErrProtocol, i)
		}
		m, null, err := parseLen(line, maxBulk, "bulk")
		if err != nil {
			return "", nil, err
		}
		if null {
			return "", nil, fmt.Errorf("%w: command element %d not a bulk string", ErrProtocol, i)
		}
		start := len(cb.data)
		cb.data, err = appendFullN(r, cb.data, m+2)
		if err != nil {
			return "", nil, err
		}
		if cb.data[start+m] != '\r' || cb.data[start+m+1] != '\n' {
			return "", nil, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		cb.data = cb.data[:start+m] // drop the CRLF from the arena
		cb.spans = append(cb.spans, start, start+m)
	}
	// Materialize the argument slices only now: arena growth during
	// parsing may have moved the buffer, so spans must resolve against
	// the final backing array for every argument to alias live memory.
	if cap(cb.args) >= n {
		cb.args = cb.args[:n]
	} else {
		cb.args = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		cb.args[i] = cb.data[cb.spans[2*i]:cb.spans[2*i+1]:cb.spans[2*i+1]]
	}
	// The canonical spelling returns the table's interned name; any
	// other spelling (or an unknown command) keeps the bytes the client
	// sent, which is what error replies and the AOF record.
	cb.id = lookupCmd(cb.args[0])
	name := cmdTable[cb.id].name
	if name != string(cb.args[0]) {
		name = string(cb.args[0])
	}
	return name, cb.args[1:], nil
}

// readFullN reads exactly n bytes into fresh memory, growing in
// bounded chunks so a hostile length header cannot force a huge
// allocation before the stream runs dry.
func readFullN(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n > chunk {
		return appendFullN(r, nil, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendFullN appends exactly n bytes from r onto buf, growing the
// buffer in bounded chunks (so a hostile length header allocates no
// faster than the stream actually delivers) and without the temporary
// slices a naive append-grow would create.
func appendFullN(r io.Reader, buf []byte, n int) ([]byte, error) {
	const chunk = 1 << 20
	for n > 0 {
		step := n
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		if cap(buf)-start < step {
			newCap := 2 * cap(buf)
			if newCap < start+step {
				newCap = start + step
			}
			grown := make([]byte, start, newCap)
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:start], err
		}
		n -= step
	}
	return buf, nil
}

// readLine reads a CRLF-terminated line, excluding the terminator. On
// the common path the returned slice aliases the bufio buffer and is
// valid only until the next read from r — every caller parses it
// before reading further.
func readLine(r *bufio.Reader) ([]byte, error) {
	frag, err := r.ReadSlice('\n')
	if err == nil {
		if len(frag) < 2 || frag[len(frag)-2] != '\r' {
			return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
		}
		return frag[: len(frag)-2 : len(frag)-2], nil
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return nil, err
	}
	// Rare path: the line spans bufio fills; accumulate, bounded.
	line := append(make([]byte, 0, 2*len(frag)), frag...)
	for {
		if len(line) > maxLineLen {
			return nil, fmt.Errorf("%w: header line exceeds %d bytes", ErrProtocol, maxLineLen)
		}
		frag, err = r.ReadSlice('\n')
		line = append(line, frag...)
		if err == nil {
			break
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}
