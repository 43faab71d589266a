package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// Server exposes an Engine over TCP using the RESP protocol, one
// goroutine per connection, with pipelined reply batches coalesced
// into writev-style flushes. It optionally layers durability (a
// group-commit AOF) and hash-slot cluster membership on top of the
// engine.
type Server struct {
	engine *Engine

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	telemetry *telemetry.Registry
	metrics   *serverMetrics

	aof     *AOF
	cluster *clusterConfig
}

// NewServer wraps an engine; a nil engine gets a fresh one.
func NewServer(engine *Engine) *Server {
	if engine == nil {
		engine = NewEngine()
	}
	return &Server{engine: engine, conns: make(map[net.Conn]struct{})}
}

// Engine returns the underlying storage engine (useful for embedding
// and white-box tests).
func (s *Server) Engine() *Engine { return s.engine }

// EnableAOF configures the append-only command log at path: the
// existing log is replayed into the engine immediately, and every
// subsequent write command is logged and group-commit fsynced
// before its reply batch is flushed, so an acknowledged write is
// durable. A log whose header this version cannot read is an error,
// and the file is left as it was. window ≤ 0 selects
// DefaultAOFSyncWindow. Must be called before Listen, and after
// SetTelemetry if AOF counters are wanted.
func (s *Server) EnableAOF(path string, window time.Duration) error {
	s.mu.Lock()
	reg := s.telemetry
	s.mu.Unlock()
	_, end, err := ReplayAOF(path, s.engine)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	} else if err := os.Truncate(path, end); err != nil {
		// aof-load-truncated: a crash can tear the last record
		// mid-write; drop the torn bytes (they were never acknowledged)
		// before reopening for append, so new records never land behind
		// an unparseable tail that would poison the next replay.
		return fmt.Errorf("kvstore: aof truncate tail: %w", err)
	}
	a, err := OpenAOF(path, window, reg)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.aof = a
	s.mu.Unlock()
	return nil
}

// SetClusterSlots enables hash-slot cluster mode: the server owns the
// slots assigned to self (its advertised address) in ranges, answers
// MOVED redirects for keys hashing elsewhere, CLUSTERDOWN for
// unassigned slots, and serves the full map via CLUSTER SLOTS. Must be
// called before Listen.
func (s *Server) SetClusterSlots(self string, ranges []SlotRange) error {
	table, err := newSlotTable(ranges)
	if err != nil {
		return err
	}
	if self == "" {
		return errors.New("kvstore: cluster self address required")
	}
	served := 0
	for _, owner := range table.owner {
		if owner == self {
			served++
		}
	}
	s.mu.Lock()
	s.cluster = &clusterConfig{self: self, table: table}
	s.telemetry.Gauge("kv_cluster_slots_served").Set(int64(served))
	s.mu.Unlock()
	return nil
}

// SetTelemetry attaches a metrics registry: per-command counts and
// latency, wire bytes in/out, connection churn, and parse errors are
// recorded into it, and the INFO command renders its snapshot. A nil
// registry (or never calling this) keeps instrumentation off with a
// single-branch fast path. Must be called before Listen.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.telemetry = reg
	s.metrics = newServerMetrics(reg)
	s.mu.Unlock()
}

// infoReply renders the telemetry snapshot as a JSON bulk string.
// Per-connection counters land in the registry at batch boundaries, so
// INFO reflects activity through each connection's last flushed batch.
func (s *Server) infoReply() Reply {
	var buf bytes.Buffer
	if err := s.telemetry.Snapshot().WriteJSON(&buf); err != nil {
		return errReply("ERR " + err.Error())
	}
	return bulkReply(buf.Bytes())
}

// handleServerCommand intercepts commands that need server context
// (telemetry, cluster metadata); ok=false means the engine should
// handle the command.
func (s *Server) handleServerCommand(id cmdID, args [][]byte) (Reply, bool) {
	switch id {
	case cmdInfo:
		return s.infoReply(), true
	case cmdCluster:
		s.mu.Lock()
		cl := s.cluster
		s.mu.Unlock()
		if cl == nil {
			return errReply("ERR cluster mode not enabled"), true
		}
		if len(args) == 1 && strings.EqualFold(string(args[0]), "SLOTS") {
			return cl.slotsReply(), true
		}
		return errReply("ERR unknown CLUSTER subcommand"), true
	}
	return Reply{}, false
}

// Listen binds the address (e.g. "127.0.0.1:0") and serves it (Serve).
// It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: listen %s: %w", addr, err)
	}
	if err := s.Serve(ln); err != nil {
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve accepts connections from ln in a background goroutine until
// Close, which closes ln. Any listener will do: the fault tests hand it
// one that wraps every accepted connection (faultnet.Plan.Listener).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("kvstore: server already closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Instrumented connections read through a byte-counting wrapper and
	// keep goroutine-local command counters in stats, flushed to the
	// shared registry at batch boundaries (below) and on teardown.
	// stats == nil is the telemetry-off fast path. Writes bypass the
	// wrapper — the reply writer needs the real conn for writev — and
	// are counted from the flush return value instead.
	var stats *connStats
	readConn := conn
	if m := s.metrics; m != nil {
		cc := &countingConn{Conn: conn}
		readConn = cc
		stats = &connStats{m: m, cc: cc}
		m.connsTotal.Inc()
		m.connsActive.Add(1)
		defer func() {
			stats.flush()
			m.connsActive.Add(-1)
		}()
	}
	r := bufio.NewReaderSize(readConn, 64<<10)
	rw := newRESPWriter(conn)
	s.mu.Lock()
	aof := s.aof
	cluster := s.cluster
	s.mu.Unlock()

	// pendingSeq is the highest AOF record this connection has appended
	// but not yet synced; the group-commit barrier runs once per reply
	// flush, so a pipelined batch of writes shares one fsync wait.
	var pendingSeq uint64
	flushReplies := func() error {
		if pendingSeq > 0 {
			err := aof.Sync(pendingSeq)
			pendingSeq = 0
			if err != nil {
				return err
			}
		}
		n, err := rw.flush()
		if stats != nil {
			stats.cc.out += n
			stats.flush()
		}
		return err
	}

	// One command arena per connection: arguments parsed by
	// ReadCommandInto alias cb and are recycled every iteration. The
	// engine copies anything it stores at its boundary (see engine.go);
	// replies that alias the arena (PING/ECHO) are force-copied into the
	// reply writer's own buffer before the next read, so nothing
	// outlives its arena generation.
	var cb CommandBuffer
	for {
		cmd, args, err := ReadCommandInto(r, &cb, MaxBulkLen)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return
			}
			if stats != nil {
				stats.m.parseErrors.Inc()
			}
			// Malformed input: answer with an error if possible, drop.
			rw.writeReply(errReply("ERR "+err.Error()), true)
			_ = flushReplies()
			return
		}
		if stats != nil {
			stats.begin()
		}
		id := cb.id
		var reply Reply
		handled := false
		if cluster != nil {
			if reply, handled = cluster.checkSlots(id, args); handled && stats != nil {
				if strings.HasPrefix(reply.Str, "MOVED") {
					stats.m.moved.Inc()
				} else {
					stats.m.clusterDown.Inc()
				}
			}
		}
		if !handled {
			reply, handled = s.handleServerCommand(id, args)
		}
		if !handled {
			reply = s.engine.doID(id, cmd, args)
			if aof != nil && cmdTable[id].writes && reply.Type != ErrorReply {
				seq, aerr := aof.Append(cmd, args)
				if aerr != nil {
					// Engine applied but the log is dead: fail the
					// command so the client never counts it durable.
					reply = errReply("ERR aof append: " + aerr.Error())
				} else {
					pendingSeq = seq
				}
			}
		}
		if stats != nil {
			stats.observe(id, reply.Type == ErrorReply)
		}
		// PING/ECHO replies alias the parse arena, recycled on the next
		// ReadCommandInto — copy them; everything else may ride
		// zero-copy into the writev batch.
		rw.writeReply(reply, id == cmdPing || id == cmdEcho)
		// Coalesce reply writes: flush when no further command is
		// already buffered (a pipelined batch read in one bufio fill is
		// answered with one gather-write) or when the pending batch hits
		// the high-water mark.
		if r.Buffered() == 0 || rw.pending() >= respFlushHighWater {
			if err := flushReplies(); err != nil {
				return
			}
		}
	}
}

// Close stops accepting, closes every connection, waits for the
// connection goroutines to drain, then flushes, fsyncs and closes the
// AOF (when configured).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	aof := s.aof
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	if aof != nil {
		if cerr := aof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Kill tears the server down like a crash: listeners and connections
// close and goroutines drain, but nothing is flushed or persisted — the
// AOF keeps exactly the bytes group commit already made durable, and
// buffered un-fsynced records (whose writes were never acknowledged)
// vanish. Crash tests use it to assert that every acknowledged write
// survives a restart.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.listeners
	aof := s.aof
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	if aof != nil {
		aof.abandon()
	}
	s.wg.Wait()
}
