package kvstore

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
)

// Engine is the in-memory storage engine: string and list values under
// string keys, sharded for concurrency. It is safe for concurrent use
// and usable both embedded (in-process) and behind the TCP server.
//
// Copy boundary: callers (in particular the server's pooled command
// arena) may reuse argument buffers the moment Do returns, so every
// command that retains bytes copies them into engine-owned memory
// first — keys via string(...) conversion, values via explicit copies
// in set/rpush. Commands that only read arguments (LRANGE bounds)
// parse before returning, and no reply aliases an argument.
//
// A list is the batches pushed into it: a push copies its values into
// one arena and adds their headers as a segment, or, if small, extends
// the end segment up to segSize elements. So a push, and its AOF
// replay, costs its batch, never a re-copy of the list's headers.
// Elements are immutable and lists drop them only wholesale (DEL,
// SET), so an arena never outlives part of its batch, and GET and
// LRANGE reply with the stored bytes themselves, which the server
// writes after the shard lock is released: no command writes to a
// stored value (SET and INCR replace one, RPUSH only adds). LRANGE's
// window is one clipped sub-slice per segment (lrange), which the
// server frames as it is and Do builds its reply from. Do clones a
// reply's bytes, so an in-process caller may keep or mutate it.
//
// AOF replay (ReplayAOF) defers the pushes to a key the log has
// deleted, and counts but never applies those a later DEL or SET of
// the key drops, so a list the log rewrites is built once.
type Engine struct {
	shards []shard
	mask   uint32
}

// Shard-count bounds: the default scales with GOMAXPROCS but never
// below the seed's fixed 16 (so single-core deployments keep the same
// lock granularity) and never above 1024 (beyond which the per-shard
// map overhead buys nothing).
const (
	minDefaultShards = 16
	maxShards        = 1024
)

type shard struct {
	mu      sync.RWMutex
	strings map[string][]byte
	lists   map[string]list
}

// segSize bounds the segment that small pushes extend in place.
const segSize = 128

// list is one list value: its elements in order, as a run of non-empty
// segments, and ends[k], the element count of segs[0..k].
type list struct {
	segs [][][]byte
	ends []int
}

func (l list) len() int {
	if len(l.ends) == 0 {
		return 0
	}
	return l.ends[len(l.ends)-1]
}

// find returns the segment holding element i (0 ≤ i < len) and i's
// offset in it, by binary search over the cumulative lengths.
func (l list) find(i int) (k, off int) {
	k = sort.SearchInts(l.ends, i+1)
	return k, i - l.ends[k] + len(l.segs[k])
}

// NewEngine creates an empty engine with the default shard count.
func NewEngine() *Engine { return newEngineShards(0) }

// newEngineShards creates an empty engine with n shards, rounded up to
// a power of two so shard selection is a mask, not a modulo. n ≤ 0
// selects the default: the smallest power of two ≥ 2×GOMAXPROCS,
// floored at 16 — enough shards that GOMAXPROCS writer goroutines
// rarely collide on one lock, which is what lets SET/GET throughput
// scale with cores.
func newEngineShards(n int) *Engine {
	if n <= 0 {
		n = 2 * runtime.GOMAXPROCS(0)
		if n < minDefaultShards {
			n = minDefaultShards
		}
	}
	if n > maxShards {
		n = maxShards
	}
	n = ceilPow2(n)
	e := &Engine{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range e.shards {
		e.shards[i].strings = make(map[string][]byte)
		e.shards[i].lists = make(map[string]list)
	}
	return e
}

// NumShards returns the engine's shard count (always a power of two).
func (e *Engine) NumShards() int { return len(e.shards) }

// ceilPow2 rounds n up to the next power of two (n ≥ 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (e *Engine) shardFor(key string) *shard {
	// FNV-1a over the key selects the shard; the power-of-two shard
	// count makes selection a single AND instead of a modulo.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &e.shards[h&e.mask]
}

// Common reply constructors.
func okReply() Reply            { return Reply{Type: SimpleString, Str: "OK"} }
func intReply(n int64) Reply    { return Reply{Type: Integer, Int: n} }
func bulkReply(b []byte) Reply  { return Reply{Type: BulkString, Bulk: b} }
func nilReply() Reply           { return Reply{Type: NullBulk} }
func errReply(msg string) Reply { return Reply{Type: ErrorReply, Str: msg} }
func wrongType() Reply {
	return errReply("WRONGTYPE Operation against a key holding the wrong kind of value")
}
func wrongArgs(cmd string) Reply {
	return errReply("ERR wrong number of arguments for '" + cmd + "' command")
}
func notInteger() Reply           { return errReply("ERR value is not an integer or out of range") }
func unknownCmd(cmd string) Reply { return errReply("ERR unknown command '" + cmd + "'") }

// doID executes a pre-resolved command. The server resolves the cmdID
// once per command and shares it between dispatch, telemetry
// classification, cluster-slot checks, and AOF logging.
func (e *Engine) doID(id cmdID, cmd string, args [][]byte) Reply {
	switch id {
	case cmdSet:
		if len(args) != 2 {
			return wrongArgs("set")
		}
		return e.set(string(args[0]), args[1])
	case cmdGet:
		if len(args) != 1 {
			return wrongArgs("get")
		}
		return e.get(string(args[0]))
	case cmdDel:
		if len(args) == 0 {
			return wrongArgs("del")
		}
		n := int64(0)
		for _, k := range args {
			n += e.del(string(k))
		}
		return intReply(n)
	case cmdIncr:
		if len(args) != 1 {
			return wrongArgs("incr")
		}
		return e.incr(string(args[0]))
	case cmdRPush:
		if len(args) < 2 {
			return wrongArgs("rpush")
		}
		return e.rpush(string(args[0]), args[1:])
	case cmdLLen:
		if len(args) != 1 {
			return wrongArgs("llen")
		}
		return e.llen(string(args[0]))
	case cmdLRange:
		win, fail, ok := e.lrange(args, nil)
		if !ok {
			return fail
		}
		return windowReply(win)
	case cmdDBSize:
		return intReply(e.Size())
	default:
		// cmdNone, and the server-context commands (INFO, CLUSTER) the
		// server intercepts before engine dispatch.
		return unknownCmd(cmd)
	}
}

func (e *Engine) set(key string, val []byte) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isList := s.lists[key]; isList {
		delete(s.lists, key)
	}
	v := make([]byte, len(val))
	copy(v, val)
	s.strings[key] = v
	return okReply()
}

func (e *Engine) get(key string) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isList := s.lists[key]; isList {
		return wrongType()
	}
	v, ok := s.strings[key]
	if !ok {
		return nilReply()
	}
	return bulkReply(v)
}

func (e *Engine) del(key string) int64 {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(0)
	if _, ok := s.strings[key]; ok {
		delete(s.strings, key)
		n++
	}
	if _, ok := s.lists[key]; ok {
		delete(s.lists, key)
		n++
	}
	return n
}

// incr is the atomic fetch-and-increment the global barrier is built
// on (paper §IV).
func (e *Engine) incr(key string) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isList := s.lists[key]; isList {
		return wrongType()
	}
	cur := int64(0)
	if v, ok := s.strings[key]; ok {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return notInteger()
		}
		cur = n
	}
	cur++
	s.strings[key] = []byte(strconv.FormatInt(cur, 10))
	return intReply(cur)
}

func (e *Engine) rpush(key string, vals [][]byte) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	l := s.lists[key]
	if t := len(l.segs) - 1; t >= 0 && len(l.segs[t])+len(vals) <= segSize {
		l.segs[t] = copyVals(l.segs[t], vals)
		l.ends[t] += len(vals)
	} else {
		l.segs = append(l.segs, copyVals(make([][]byte, 0, len(vals)), vals))
		l.ends = append(l.ends, l.len()+len(vals))
	}
	s.lists[key] = l
	return intReply(int64(l.len()))
}

// copyVals appends to dst copies of a push's caller-owned values, all
// in one arena: one allocation per command, not per element.
func copyVals(dst, vals [][]byte) [][]byte {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	arena := make([]byte, 0, total)
	for _, v := range vals {
		start := len(arena)
		arena = append(arena, v...)
		dst = append(dst, arena[start:len(arena):len(arena)])
	}
	return dst
}

// isString reports whether key holds a string: the one state in which
// RPUSH fails, so the one in which replay must not defer a push.
func (e *Engine) isString(key string) bool {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.strings[key]
	return ok
}

func (e *Engine) llen(key string) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	return intReply(int64(s.lists[key].len()))
}

// lrange runs LRANGE: it appends to dst the window's stored values,
// one sub-slice per segment the window spans, clipped under the shard
// lock. The walk costs O(segments) and copies no value; the server
// frames the window as it is, and doID builds a Reply from it. ok=false
// means the command failed and fail is its error reply.
func (e *Engine) lrange(args [][]byte, dst [][][]byte) (win [][][]byte, fail Reply, ok bool) {
	if len(args) != 3 {
		return dst, wrongArgs("lrange"), false
	}
	start, err1 := strconv.ParseInt(string(args[1]), 10, 64)
	stop, err2 := strconv.ParseInt(string(args[2]), 10, 64)
	if err1 != nil || err2 != nil {
		return dst, notInteger(), false
	}
	key := string(args[0])
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isStr := s.strings[key]; isStr {
		return dst, wrongType(), false
	}
	l := s.lists[key]
	n := int64(l.len())
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	start, stop = max(start, 0), min(stop, n-1)
	if start > stop {
		return dst, Reply{}, true
	}
	k, off := l.find(int(start))
	for rest := int(stop - start + 1); rest > 0; k, off = k+1, 0 {
		seg := l.segs[k][off:]
		seg = seg[:min(len(seg), rest):min(len(seg), rest)]
		dst = append(dst, seg)
		rest -= len(seg)
	}
	return dst, Reply{}, true
}

// windowReply is the array reply of an LRANGE window. Its elements
// alias the stored values.
func windowReply(win [][][]byte) Reply {
	n := 0
	for _, seg := range win {
		n += len(seg)
	}
	out := make([]Reply, 0, n)
	for _, seg := range win {
		for _, v := range seg {
			out = append(out, bulkReply(v))
		}
	}
	return Reply{Type: Array, Array: out}
}

// Size returns the total number of keys.
func (e *Engine) Size() int64 {
	var n int64
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += int64(len(s.strings) + len(s.lists))
		s.mu.RUnlock()
	}
	return n
}
