package kvstore

import (
	"runtime"
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
// in set/rpush/lpush/append. Commands that only read arguments
// (INCRBY, LRANGE bounds, …) parse before returning; replies echoing
// an argument (PING/ECHO) alias it and must be consumed before the
// caller recycles its buffer.
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
	lists   map[string][][]byte
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
		e.shards[i].lists = make(map[string][][]byte)
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

// Do executes one command against the engine and returns its reply.
// Command names are case-insensitive, as in Redis; the lookup folds
// case without allocating, so a lowercase client costs nothing extra.
func (e *Engine) Do(cmd string, args ...[]byte) Reply {
	return e.doID(lookupCmd(cmd), cmd, args)
}

// doID executes a pre-resolved command. The server resolves the cmdID
// once per command and shares it between dispatch, telemetry
// classification, cluster-slot checks, and AOF logging.
func (e *Engine) doID(id cmdID, cmd string, args [][]byte) Reply {
	switch id {
	case cmdPing:
		if len(args) == 1 {
			return bulkReply(args[0])
		}
		return Reply{Type: SimpleString, Str: "PONG"}
	case cmdEcho:
		if len(args) != 1 {
			return wrongArgs("echo")
		}
		return bulkReply(args[0])
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
	case cmdExists:
		if len(args) == 0 {
			return wrongArgs("exists")
		}
		n := int64(0)
		for _, k := range args {
			n += e.exists(string(k))
		}
		return intReply(n)
	case cmdIncr:
		if len(args) != 1 {
			return wrongArgs("incr")
		}
		return e.incrBy(string(args[0]), 1)
	case cmdIncrBy:
		if len(args) != 2 {
			return wrongArgs("incrby")
		}
		d, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil {
			return notInteger()
		}
		return e.incrBy(string(args[0]), d)
	case cmdAppend:
		if len(args) != 2 {
			return wrongArgs("append")
		}
		return e.append(string(args[0]), args[1])
	case cmdStrlen:
		if len(args) != 1 {
			return wrongArgs("strlen")
		}
		return e.strlen(string(args[0]))
	case cmdRPush:
		if len(args) < 2 {
			return wrongArgs("rpush")
		}
		return e.rpush(string(args[0]), args[1:])
	case cmdLPush:
		if len(args) < 2 {
			return wrongArgs("lpush")
		}
		return e.lpush(string(args[0]), args[1:])
	case cmdLLen:
		if len(args) != 1 {
			return wrongArgs("llen")
		}
		return e.llen(string(args[0]))
	case cmdLIndex:
		if len(args) != 2 {
			return wrongArgs("lindex")
		}
		i, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil {
			return notInteger()
		}
		return e.lindex(string(args[0]), i)
	case cmdLRange:
		if len(args) != 3 {
			return wrongArgs("lrange")
		}
		start, err1 := strconv.ParseInt(string(args[1]), 10, 64)
		stop, err2 := strconv.ParseInt(string(args[2]), 10, 64)
		if err1 != nil || err2 != nil {
			return notInteger()
		}
		return e.lrange(string(args[0]), start, stop)
	case cmdFlushDB, cmdFlushAll:
		e.Flush()
		return okReply()
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
	out := make([]byte, len(v))
	copy(out, v)
	return bulkReply(out)
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

func (e *Engine) exists(key string) int64 {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.strings[key]; ok {
		return 1
	}
	if _, ok := s.lists[key]; ok {
		return 1
	}
	return 0
}

// incrBy is the atomic fetch-and-increment the global barrier is built
// on (paper §IV).
func (e *Engine) incrBy(key string, delta int64) Reply {
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
	cur += delta
	s.strings[key] = []byte(strconv.FormatInt(cur, 10))
	return intReply(cur)
}

func (e *Engine) append(key string, val []byte) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isList := s.lists[key]; isList {
		return wrongType()
	}
	s.strings[key] = append(s.strings[key], val...)
	return intReply(int64(len(s.strings[key])))
}

func (e *Engine) strlen(key string) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isList := s.lists[key]; isList {
		return wrongType()
	}
	return intReply(int64(len(s.strings[key])))
}

func (e *Engine) rpush(key string, vals [][]byte) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	l := s.lists[key]
	if len(vals) == 1 { // single-value pushes skip the arena indirection
		c := make([]byte, len(vals[0]))
		copy(c, vals[0])
		l = append(l, c)
	} else {
		l = append(l, copyVals(vals)...)
	}
	s.lists[key] = l
	return intReply(int64(len(l)))
}

// copyVals copies a batch of caller-owned argument buffers into one
// shared arena (one allocation per command instead of one per element)
// — the engine's copy-at-the-boundary contract for variadic pushes.
// Elements of one batch alias the arena but are immutable once stored,
// and lists only ever drop elements wholesale (DEL/FLUSHDB), so the
// shared backing cannot outlive its batch partially.
func copyVals(vals [][]byte) [][]byte {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	arena := make([]byte, 0, total)
	out := make([][]byte, len(vals))
	for i, v := range vals {
		start := len(arena)
		arena = append(arena, v...)
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

func (e *Engine) lpush(key string, vals [][]byte) Reply {
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	l := s.lists[key]
	if len(vals) == 1 {
		c := make([]byte, len(vals[0]))
		copy(c, vals[0])
		l = append([][]byte{c}, l...)
	} else {
		for _, c := range copyVals(vals) {
			l = append([][]byte{c}, l...)
		}
	}
	s.lists[key] = l
	return intReply(int64(len(l)))
}

func (e *Engine) llen(key string) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	return intReply(int64(len(s.lists[key])))
}

func (e *Engine) lindex(key string, i int64) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	l := s.lists[key]
	if i < 0 {
		i += int64(len(l))
	}
	if i < 0 || i >= int64(len(l)) {
		return nilReply()
	}
	out := make([]byte, len(l[i]))
	copy(out, l[i])
	return bulkReply(out)
}

func (e *Engine) lrange(key string, start, stop int64) Reply {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, isStr := s.strings[key]; isStr {
		return wrongType()
	}
	l := s.lists[key]
	n := int64(len(l))
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || n == 0 {
		return Reply{Type: Array, Array: []Reply{}}
	}
	out := make([]Reply, 0, stop-start+1)
	for i := start; i <= stop; i++ {
		c := make([]byte, len(l[i]))
		copy(c, l[i])
		out = append(out, bulkReply(c))
	}
	return Reply{Type: Array, Array: out}
}

// Flush removes every key.
func (e *Engine) Flush() {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		s.strings = make(map[string][]byte)
		s.lists = make(map[string][][]byte)
		s.mu.Unlock()
	}
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
