package kvstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// Asynchronous primary→replica replication over the AOF record log.
//
// The AOF is already a total order of every write the primary applied,
// framed in RESP; replication streams exactly those bytes. A replica
// dials the primary and issues REPLSYNC <gen> <offset> [addr]; the
// primary answers either
//
//	+CONTINUE <gen> <offset>          — the cursor names a position in
//	                                    the live log generation: stream
//	                                    resumes right there, or
//	+FULLSYNC <gen> <offset>          — followed by one bulk string
//	                                    holding a point-in-time engine
//	                                    snapshot paired with that exact
//	                                    AOF mark (PR 6's snapshot v2
//	                                    machinery), after which the
//	                                    stream starts at the mark.
//
// From then on the connection is a one-way byte stream of AOF records
// (the feeder tails the log file, sending only *durable* bytes, so a
// replica never applies a record the primary could still lose to a
// crash), interleaved at record boundaries with REPLPING <durableOff>
// heartbeat frames that carry the primary's durable offset for lag
// accounting but are not part of the log and advance no cursor. The
// replica applies each record, tracks its cursor as (generation, byte
// offset) in the primary's log, and rides REPLACK <gen> <off> frames
// back on the same connection — the primary's ack ledger behind the
// MinAckReplicas write-gating knob and the REPLINFO lag report.
//
// A log rewrite (SAVE/BGREWRITEAOF) rotates the generation; feeders
// notice and drop the connection, and the replica's stale-generation
// cursor turns its reconnect into a full resync. Torn streams are
// harmless by construction: the replica's offset only ever advances
// past complete records (the same counting ReplayAOFSince uses), so a
// reconnect resumes exactly at the tear with nothing skipped and
// nothing double-applied.
//
// Consistency model: replication is asynchronous by default — an acked
// write is durable on the primary (group-commit fsync) but reaches
// replicas with a lag visible in kv_repl_lag_bytes. Setting
// ReplicationConfig.MinAckReplicas > 0 gates each acknowledgment on
// that many replica acks (semi-synchronous), which is what makes
// "acked writes survive primary loss + failover" a guarantee instead
// of a probability. Promotion (REPLTAKEOVER) stops the replica loop,
// flushes the local log, and — in cluster mode — reassigns every slot
// the dead primary owned to the promoted node.

// replRole is the server's replication role.
type replRole int32

const (
	rolePrimary replRole = iota
	roleReplica
)

// ReplicationConfig tunes the primary side of replication. The zero
// value means: fully asynchronous, 100ms heartbeats, 2ms feeder poll.
type ReplicationConfig struct {
	// MinAckReplicas gates every write acknowledgment on this many
	// replicas having acked the write's log offset (semi-synchronous
	// replication). 0 = fully asynchronous.
	MinAckReplicas int
	// AckTimeout bounds the semi-sync wait; on expiry the write's
	// connection fails (the client never saw an ack, so the write may
	// be re-issued). ≤ 0 = 2s.
	AckTimeout time.Duration
	// PingEvery is the feeder's heartbeat cadence on an idle stream.
	// ≤ 0 = 100ms.
	PingEvery time.Duration
	// Poll is how often a feeder re-checks the log for new durable
	// bytes. ≤ 0 = 2ms.
	Poll time.Duration
}

// replWriteTimeout is the feeder's per-write deadline; a replica that
// cannot drain the stream this long is cut off.
const replWriteTimeout = 5 * time.Second

func (c *ReplicationConfig) normalize() {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.PingEvery <= 0 {
		c.PingEvery = 100 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = 2 * time.Millisecond
	}
}

// ReplicaOptions tunes the replica side of replication.
type ReplicaOptions struct {
	// SelfAddr is the address this replica advertises to its primary —
	// the address CLUSTER SLOTS lists and failover promotes. Empty
	// means the replica stays anonymous (it replicates but cannot be
	// discovered for failover).
	SelfAddr string
	// DialTimeout bounds each (re)connection attempt. ≤ 0 = 2s.
	DialTimeout time.Duration
	// StreamTimeout is the longest silence (no records, no REPLPING)
	// tolerated before the replica declares the stream dead and
	// reconnects. ≤ 0 = 3s.
	StreamTimeout time.Duration
	// RetryBackoff/MaxBackoff shape the reconnect loop's capped
	// exponential backoff. ≤ 0 = 50ms / 1s.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Dialer overrides how the primary is reached — the fault-injection
	// hook. nil = net.DialTimeout("tcp", …).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

func (o *ReplicaOptions) normalize() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.StreamTimeout <= 0 {
		o.StreamTimeout = 3 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
}

// replMetrics is the pre-resolved metric bundle for both roles; every
// field no-ops when resolved from a nil registry.
type replMetrics struct {
	// primary side
	fullSyncs    *telemetry.Counter
	partialSyncs *telemetry.Counter
	streamBytes  *telemetry.Counter // bytes fed to replicas
	feedErrors   *telemetry.Counter
	ackTimeouts  *telemetry.Counter
	replicas     *telemetry.Gauge // connected replica count
	// replica side
	appliedRecords *telemetry.Counter
	appliedBytes   *telemetry.Counter
	reconnects     *telemetry.Counter
	streamErrors   *telemetry.Counter
	promotions     *telemetry.Counter
	lag            *telemetry.Gauge // durable bytes the replica trails by
	offset         *telemetry.Gauge // replica cursor in the primary's log
	sick           *telemetry.Gauge // 1 while the replica is disconnected
}

func newReplMetrics(reg *telemetry.Registry) *replMetrics {
	return &replMetrics{
		fullSyncs:      reg.Counter("kv_repl_full_syncs_total"),
		partialSyncs:   reg.Counter("kv_repl_partial_syncs_total"),
		streamBytes:    reg.Counter("kv_repl_stream_bytes_total"),
		feedErrors:     reg.Counter("kv_repl_feed_errors_total"),
		ackTimeouts:    reg.Counter("kv_repl_ack_timeouts_total"),
		replicas:       reg.Gauge("kv_repl_replicas_connected"),
		appliedRecords: reg.Counter("kv_repl_applied_records_total"),
		appliedBytes:   reg.Counter("kv_repl_applied_bytes_total"),
		reconnects:     reg.Counter("kv_repl_reconnects_total"),
		streamErrors:   reg.Counter("kv_repl_stream_errors_total"),
		promotions:     reg.Counter("kv_repl_promotions_total"),
		lag:            reg.Gauge("kv_repl_lag_bytes"),
		offset:         reg.Gauge("kv_repl_offset_bytes"),
		sick:           reg.Gauge("kv_repl_error"),
	}
}

// replicaConn is the primary's view of one connected replica.
type replicaConn struct {
	addr  string // advertised address ("" = anonymous)
	conn  net.Conn
	gen   uint64
	sent  int64 // log offset streamed so far
	acked int64 // log offset the replica confirmed applied
	since time.Time
}

// replHub is the primary's replica registry and ack ledger. changed is
// closed and replaced on every state change so semi-sync waiters can
// select on it with a timeout (a sync.Cond cannot).
type replHub struct {
	mu       sync.Mutex
	replicas map[*replicaConn]struct{}
	changed  chan struct{}
	m        *replMetrics
}

func newReplHub() *replHub {
	return &replHub{
		replicas: make(map[*replicaConn]struct{}),
		changed:  make(chan struct{}),
	}
}

func (h *replHub) bumpLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

func (h *replHub) register(rc *replicaConn) {
	h.mu.Lock()
	h.replicas[rc] = struct{}{}
	h.m.replicas.Set(int64(len(h.replicas)))
	h.bumpLocked()
	h.mu.Unlock()
}

func (h *replHub) unregister(rc *replicaConn) {
	h.mu.Lock()
	delete(h.replicas, rc)
	h.m.replicas.Set(int64(len(h.replicas)))
	h.bumpLocked()
	h.mu.Unlock()
}

func (h *replHub) setSent(rc *replicaConn, off int64) {
	h.mu.Lock()
	rc.sent = off
	h.mu.Unlock()
}

func (h *replHub) setAck(rc *replicaConn, gen uint64, off int64) {
	h.mu.Lock()
	if gen == rc.gen && off > rc.acked {
		rc.acked = off
		h.bumpLocked()
	}
	h.mu.Unlock()
}

// addrs lists the advertised addresses of currently connected replicas
// — the tail of the CLUSTER SLOTS entries for self-owned ranges.
func (h *replHub) addrs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for rc := range h.replicas {
		if rc.addr != "" {
			out = append(out, rc.addr)
		}
	}
	return out
}

func (h *replHub) countAckedLocked(gen uint64, off int64) int {
	n := 0
	for rc := range h.replicas {
		if rc.gen == gen && rc.acked >= off {
			n++
		}
	}
	return n
}

// waitAcked blocks until want replicas have acked log offset off in
// generation gen, or the timeout expires. The semi-sync write gate.
func (h *replHub) waitAcked(gen uint64, off int64, want int, timeout time.Duration) error {
	if want <= 0 {
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	h.mu.Lock()
	for {
		if h.countAckedLocked(gen, off) >= want {
			h.mu.Unlock()
			return nil
		}
		ch := h.changed
		h.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("kvstore: %d replica ack(s) for log offset %d not received within %v", want, off, timeout)
		}
		h.mu.Lock()
	}
}

// snapshotInfo captures the hub for REPLINFO.
func (h *replHub) snapshotInfo() []replicaInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]replicaInfo, 0, len(h.replicas))
	for rc := range h.replicas {
		out = append(out, replicaInfo{
			Addr:     rc.addr,
			Gen:      rc.gen,
			SentOff:  rc.sent,
			AckedOff: rc.acked,
			AgeSec:   time.Since(rc.since).Seconds(),
		})
	}
	return out
}

// writeReplPing frames one REPLPING <durOff> heartbeat and writes it to
// the stream in a single Write. Feeders only emit it when the stream is
// drained to a record boundary, so it can never land inside a record.
func writeReplPing(conn net.Conn, durOff int64) error {
	var offBuf [20]byte
	off := strconv.AppendInt(offBuf[:0], durOff, 10)
	b := make([]byte, 0, 48)
	b = append(b, "*2\r\n$8\r\nREPLPING\r\n$"...)
	b = strconv.AppendInt(b, int64(len(off)), 10)
	b = append(b, '\r', '\n')
	b = append(b, off...)
	b = append(b, '\r', '\n')
	_, err := conn.Write(b)
	return err
}

// serveReplSync turns an accepted connection into a replication stream:
// handshake (full or partial sync decision), then a feeder loop tailing
// the AOF file. It owns the connection until the stream dies.
func (s *Server) serveReplSync(conn net.Conn, br *bufio.Reader, args [][]byte) {
	m := s.replMetricsRef()
	cfg := s.replConfig()
	fail := func(msg string) {
		conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		fmt.Fprintf(conn, "-%s\r\n", msg)
	}
	aof := s.AOF()
	if aof == nil {
		fail("ERR replication requires an AOF-enabled primary")
		return
	}
	if s.role.Load() == int32(roleReplica) {
		fail("ERR REPLSYNC against a replica (chained replication unsupported)")
		return
	}
	if len(args) < 2 {
		fail("ERR usage: REPLSYNC <gen> <offset> [addr]")
		return
	}
	gen, err1 := strconv.ParseUint(string(args[0]), 10, 64)
	off, err2 := strconv.ParseInt(string(args[1]), 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		fail("ERR bad REPLSYNC cursor")
		return
	}
	var addr string
	if len(args) >= 3 {
		addr = string(args[2])
	}

	// Full vs partial is decided under the exclusive persistence lock:
	// the snapshot image and the AOF mark it pairs with must name the
	// same instant, with no command applying between the two.
	var img []byte
	s.persistMu.Lock()
	cur := aof.Mark()
	if gen == cur.Gen && off >= int64(aofHeaderLen) && off <= cur.Off {
		s.persistMu.Unlock()
	} else {
		var buf bytes.Buffer
		err := s.engine.WriteSnapshotMark(&buf, cur)
		s.persistMu.Unlock()
		if err != nil {
			m.feedErrors.Inc()
			fail("ERR snapshot: " + err.Error())
			return
		}
		img = buf.Bytes()
		gen, off = cur.Gen, cur.Off
	}

	bw := bufio.NewWriterSize(conn, 64<<10)
	// The snapshot preamble can be large; scale the deadline up from the
	// per-chunk stream timeout.
	conn.SetWriteDeadline(time.Now().Add(10 * replWriteTimeout))
	if img != nil {
		m.fullSyncs.Inc()
		fmt.Fprintf(bw, "+FULLSYNC %d %d\r\n", gen, off)
		fmt.Fprintf(bw, "$%d\r\n", len(img))
		bw.Write(img)
		bw.WriteString("\r\n")
	} else {
		m.partialSyncs.Inc()
		fmt.Fprintf(bw, "+CONTINUE %d %d\r\n", gen, off)
	}
	if err := bw.Flush(); err != nil {
		m.feedErrors.Inc()
		return
	}

	// Everything at or before the sync point is already applied on the
	// replica, so the ack ledger starts there.
	rc := &replicaConn{addr: addr, conn: conn, gen: gen, sent: off, acked: off, since: time.Now()}
	hub := s.hub
	hub.register(rc)
	defer hub.unregister(rc)

	// REPLACK frames ride back on the same connection; any read error
	// (including the replica just closing) tears the stream down.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		var cb CommandBuffer
		for {
			_, aargs, err := ReadCommandInto(br, &cb, MaxBulkLen)
			if err != nil {
				conn.Close()
				return
			}
			if cb.id == cmdReplAck && len(aargs) >= 2 {
				g, e1 := strconv.ParseUint(string(aargs[0]), 10, 64)
				o, e2 := strconv.ParseInt(string(aargs[1]), 10, 64)
				if e1 == nil && e2 == nil {
					hub.setAck(rc, g, o)
				}
			}
		}
	}()

	// The feeder reads through its own descriptor: the appender's fd and
	// buffering are never shared, and ReadAt makes position races with
	// other feeders impossible.
	f, err := os.Open(aof.Path())
	if err != nil {
		m.feedErrors.Inc()
		conn.Close()
		<-ackDone
		return
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	sent := off
	var lastPing time.Time
	for {
		if s.isClosed() {
			break
		}
		durGen, durOff := aof.DurablePos()
		if durGen != gen {
			// Log rewritten out from under the stream: drop the
			// connection; the replica's stale-generation cursor turns its
			// reconnect into a full resync.
			break
		}
		if durOff > sent {
			n := int64(len(buf))
			if durOff-sent < n {
				n = durOff - sent
			}
			rn, rerr := f.ReadAt(buf[:n], sent)
			if rn > 0 {
				conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
				if _, werr := conn.Write(buf[:rn]); werr != nil {
					if !s.isClosed() {
						m.feedErrors.Inc()
					}
					break
				}
				sent += int64(rn)
				hub.setSent(rc, sent)
				m.streamBytes.Add(int64(rn))
				lastPing = time.Now() // flowing data proves liveness
			}
			if rerr != nil && rn == 0 {
				// The file shrank beneath a position the durable offset
				// vouched for — a rewrite racing this read. The
				// generation check exits the loop next pass; anything
				// else is genuine corruption, so bail either way.
				if g, _ := aof.DurablePos(); g == gen {
					m.feedErrors.Inc()
				}
				break
			}
			continue
		}
		if lastPing.IsZero() || time.Since(lastPing) >= cfg.PingEvery {
			conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if writeReplPing(conn, durOff) != nil {
				break
			}
			lastPing = time.Now()
		}
		time.Sleep(cfg.Poll)
	}
	conn.Close()
	<-ackDone
}

// replStreamHandler is the hook set replApply drives; splitting the
// stream-decoding loop from the session lets tests feed it arbitrary
// byte prefixes without a network or a server.
type replStreamHandler struct {
	preRead  func()                                          // arm a read deadline
	apply    func(id cmdID, cmd string, args [][]byte) error // one data record
	advance  func(off int64)                                 // cursor moved past a record
	ping     func(durOff int64)                              // REPLPING heartbeat
	batchEnd func(off int64) error                           // read buffer drained (ack point)
}

// replApply decodes replication stream frames from br (whose bytes are
// counted by cr) starting at log offset start, dispatching records and
// heartbeats to h. The returned offset is the position just past the
// last complete *data* record — REPLPING frames consume stream bytes
// but advance no log offset — computed the same way ReplayAOFSince
// finds its truncation point, so a stream torn at any byte leaves the
// cursor on a record boundary: the record the tear landed in was never
// applied and is re-streamed whole on reconnect.
func replApply(cr *countingReader, br *bufio.Reader, start int64, h replStreamHandler) (int64, error) {
	var cb CommandBuffer
	off := start
	pos := cr.n - int64(br.Buffered())
	for {
		if h.preRead != nil {
			h.preRead()
		}
		cmd, args, err := ReadCommandInto(br, &cb, MaxBulkLen)
		if err != nil {
			return off, err
		}
		newPos := cr.n - int64(br.Buffered())
		frameLen := newPos - pos
		pos = newPos
		if id := cb.id; id == cmdReplPing {
			if len(args) == 1 && h.ping != nil {
				if d, perr := strconv.ParseInt(string(args[0]), 10, 64); perr == nil {
					h.ping(d)
				}
			}
		} else {
			if err := h.apply(id, cmd, args); err != nil {
				return off, err
			}
			off += frameLen
			if h.advance != nil {
				h.advance(off)
			}
		}
		if br.Buffered() == 0 && h.batchEnd != nil {
			if err := h.batchEnd(off); err != nil {
				return off, err
			}
		}
	}
}

// replicaSession is the replica side's connection-independent state:
// the primary's address, the cursor into the primary's log, and the
// liveness view REPLINFO reports.
type replicaSession struct {
	primary  string
	opts     ReplicaOptions
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu        sync.Mutex
	conn      net.Conn
	stopped   bool
	gen       uint64 // primary's log generation the cursor names
	off       int64  // byte offset applied through, in that generation
	lag       int64  // primary durable offset minus off, from heartbeats
	connected bool
	lastPing  time.Time
}

func (rs *replicaSession) shutdown() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	rs.mu.Lock()
	rs.stopped = true
	if rs.conn != nil {
		rs.conn.Close()
	}
	rs.mu.Unlock()
}

// setConn tracks the live stream connection so shutdown can interrupt a
// blocked read; it refuses a new connection once stopped.
func (rs *replicaSession) setConn(c net.Conn) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.stopped && c != nil {
		return false
	}
	rs.conn = c
	return true
}

func (rs *replicaSession) cursor() (uint64, int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.gen, rs.off
}

func (rs *replicaSession) setCursor(gen uint64, off int64) {
	rs.mu.Lock()
	rs.gen = gen
	rs.off = off
	rs.mu.Unlock()
}

// StartReplicaOf switches the server into the replica role and starts
// replicating from the primary at addr. Write commands are rejected
// with -READONLY from this point (reads keep working); REPLTAKEOVER or
// REPLICAOF NO ONE switch back. The replication loop reconnects with
// capped backoff until then. Call after EnableAOF/SetTelemetry.
func (s *Server) StartReplicaOf(addr string, opts ReplicaOptions) error {
	if addr == "" {
		return errors.New("kvstore: replica needs a primary address")
	}
	opts.normalize()
	rs := &replicaSession{primary: addr, opts: opts, stop: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("kvstore: server closed")
	}
	if s.replica != nil {
		s.mu.Unlock()
		return errors.New("kvstore: already replicating")
	}
	s.replica = rs
	s.mu.Unlock()
	s.role.Store(int32(roleReplica))
	s.replMetricsRef().sick.Set(1) // sick until the first sync lands
	rs.wg.Add(1)
	go s.replicaLoop(rs)
	return nil
}

// replicaLoop reconnects to the primary with capped exponential backoff
// until the session is shut down (promotion or server close).
func (s *Server) replicaLoop(rs *replicaSession) {
	defer rs.wg.Done()
	m := s.replMetricsRef()
	backoff := rs.opts.RetryBackoff
	for {
		select {
		case <-rs.stop:
			return
		default:
		}
		synced, err := s.replicateOnce(rs, m)
		if err == nil {
			return // clean stop
		}
		m.streamErrors.Inc()
		m.sick.Set(1)
		if synced {
			backoff = rs.opts.RetryBackoff // made progress: start over
		}
		select {
		case <-rs.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > rs.opts.MaxBackoff {
			backoff = rs.opts.MaxBackoff
		}
		m.reconnects.Inc()
	}
}

// replicateOnce runs one connection's lifetime: dial, sync handshake,
// then the apply loop until the stream dies. synced reports whether the
// handshake completed (the backoff reset signal). A nil error means the
// session was stopped on purpose.
func (s *Server) replicateOnce(rs *replicaSession, m *replMetrics) (synced bool, err error) {
	opts := rs.opts
	dial := opts.Dialer
	if dial == nil {
		dial = func(addr string, t time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, t)
		}
	}
	conn, err := dial(rs.primary, opts.DialTimeout)
	if err != nil {
		return false, err
	}
	if !rs.setConn(conn) {
		conn.Close()
		return false, nil // stopped while dialing
	}
	defer func() {
		conn.Close()
		rs.setConn(nil)
		rs.mu.Lock()
		rs.connected = false
		rs.mu.Unlock()
	}()

	gen, off := rs.cursor()
	bw := bufio.NewWriterSize(conn, 4<<10)
	conn.SetDeadline(time.Now().Add(opts.DialTimeout + opts.StreamTimeout))
	if err := WriteCommand(bw, "REPLSYNC",
		[]byte(strconv.FormatUint(gen, 10)),
		[]byte(strconv.FormatInt(off, 10)),
		[]byte(opts.SelfAddr)); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	cr := &countingReader{r: conn}
	br := bufio.NewReaderSize(cr, 64<<10)
	hs, err := ReadReply(br)
	if err != nil {
		return false, err
	}
	if hs.Type == ErrorReply {
		return false, fmt.Errorf("kvstore: replsync rejected: %s", hs.Str)
	}
	if hs.Type != SimpleString {
		return false, fmt.Errorf("kvstore: unexpected replsync reply %v", hs.Type)
	}
	fields := strings.Fields(hs.Str)
	if len(fields) != 3 {
		return false, fmt.Errorf("kvstore: malformed replsync reply %q", hs.Str)
	}
	sgen, e1 := strconv.ParseUint(fields[1], 10, 64)
	soff, e2 := strconv.ParseInt(fields[2], 10, 64)
	if e1 != nil || e2 != nil {
		return false, fmt.Errorf("kvstore: malformed replsync reply %q", hs.Str)
	}
	switch fields[0] {
	case "FULLSYNC":
		// The bulk snapshot follows; it can be large, so stretch the
		// deadline well past the per-frame stream timeout.
		conn.SetReadDeadline(time.Now().Add(10 * opts.StreamTimeout))
		img, err := ReadReply(br)
		if err != nil {
			return false, err
		}
		if img.Type != BulkString {
			return false, fmt.Errorf("kvstore: full sync image is %v, want bulk", img.Type)
		}
		if err := s.loadReplicaSnapshot(img.Bulk); err != nil {
			return false, err
		}
		rs.setCursor(sgen, soff)
	case "CONTINUE":
		rs.setCursor(sgen, soff)
	default:
		return false, fmt.Errorf("kvstore: malformed replsync reply %q", hs.Str)
	}
	conn.SetWriteDeadline(time.Time{})
	rs.mu.Lock()
	rs.connected = true
	rs.lastPing = time.Now()
	rs.mu.Unlock()
	m.sick.Set(0)
	m.offset.Set(soff)

	laof := s.AOF()
	var pendingSeq uint64
	sendAck := func() error {
		g, o := rs.cursor()
		conn.SetWriteDeadline(time.Now().Add(opts.StreamTimeout))
		if err := WriteCommand(bw, "REPLACK",
			[]byte(strconv.FormatUint(g, 10)),
			[]byte(strconv.FormatInt(o, 10))); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := sendAck(); err != nil { // prime the primary's ack ledger
		return true, err
	}
	h := replStreamHandler{
		preRead: func() { conn.SetReadDeadline(time.Now().Add(opts.StreamTimeout)) },
		apply: func(id cmdID, cmd string, args [][]byte) error {
			// Same persistence discipline as the primary's write path:
			// shared lock across apply + local append, so a local rewrite
			// can never snapshot between the two.
			s.persistMu.RLock()
			rep := s.engine.doID(id, cmd, args)
			var seq uint64
			var aerr error
			if rep.Type != ErrorReply && laof != nil && cmdTable[id].writes {
				seq, aerr = laof.Append(cmd, args)
			}
			s.persistMu.RUnlock()
			if rep.Type == ErrorReply {
				// The primary applied this record cleanly; failing here
				// means divergence. Reset the cursor so the reconnect
				// resynchronizes from a fresh snapshot.
				rs.setCursor(0, 0)
				return fmt.Errorf("kvstore: replica apply %s diverged: %s", cmd, rep.Str)
			}
			if aerr != nil {
				return aerr
			}
			if seq > 0 {
				pendingSeq = seq
			}
			m.appliedRecords.Inc()
			return nil
		},
		advance: func(off int64) {
			rs.mu.Lock()
			delta := off - rs.off
			rs.off = off
			if rs.lag -= delta; rs.lag < 0 {
				rs.lag = 0
			}
			lag := rs.lag
			rs.mu.Unlock()
			m.appliedBytes.Add(delta)
			m.offset.Set(off)
			m.lag.Set(lag)
		},
		ping: func(durOff int64) {
			rs.mu.Lock()
			lag := durOff - rs.off
			if lag < 0 {
				lag = 0
			}
			rs.lag = lag
			rs.lastPing = time.Now()
			rs.mu.Unlock()
			m.lag.Set(lag)
		},
		batchEnd: func(off int64) error {
			if pendingSeq > 0 {
				err := laof.Sync(pendingSeq)
				pendingSeq = 0
				if err != nil {
					return err
				}
			}
			return sendAck()
		},
	}
	_, err = replApply(cr, br, soff, h)
	select {
	case <-rs.stop:
		return true, nil // stopped on purpose; the read error is ours
	default:
	}
	return true, err
}

// loadReplicaSnapshot replaces the engine contents with a full-sync
// image and restarts local persistence from it: the old local log
// predates the image and must never replay over it, so when a snapshot
// path is configured the image is persisted with the post-reset log
// mark, and the log is truncated either way.
func (s *Server) loadReplicaSnapshot(img []byte) error {
	s.mu.Lock()
	aof := s.aof
	snapPath := s.snapshotPath
	s.mu.Unlock()
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if _, err := s.engine.ReadSnapshotMark(bytes.NewReader(img)); err != nil {
		return err
	}
	var mark AOFMark
	if aof != nil {
		m, err := aof.DurableMark()
		if err != nil {
			return err
		}
		mark = m
	}
	if snapPath != "" {
		if err := s.engine.SaveSnapshotFileMark(snapPath, mark); err != nil {
			return err
		}
	}
	if aof != nil {
		if err := aof.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// PromoteToPrimary stops replication and switches the server to the
// primary role; its local log is flushed durable first so nothing it
// applied as a replica can be lost to a crash immediately after. With
// takeover set and cluster mode enabled, every slot the old primary
// owned is reassigned to this server — the REPLTAKEOVER failover step —
// and the number of slots moved is returned.
func (s *Server) PromoteToPrimary(takeover bool) (int, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.mu.Lock()
	rs := s.replica
	s.mu.Unlock()
	if rs == nil {
		return 0, errors.New("kvstore: not a replica")
	}
	rs.shutdown()
	rs.wg.Wait()
	s.mu.Lock()
	aof := s.aof
	cl := s.cluster
	s.replica = nil
	s.mu.Unlock()
	if aof != nil {
		s.persistMu.Lock()
		_, err := aof.DurableMark()
		s.persistMu.Unlock()
		if err != nil {
			// The log is sick (gauge already raised); keep promoting —
			// availability is the whole point of failover.
			err = nil
		}
	}
	moved := 0
	if takeover && cl != nil {
		for {
			old := cl.table.Load()
			nt, n := old.reassign(rs.primary, cl.self)
			if cl.table.CompareAndSwap(old, nt) {
				moved = n
				break
			}
		}
		s.updateSlotsServed(cl)
	}
	s.role.Store(int32(rolePrimary))
	m := s.replMetricsRef()
	m.promotions.Inc()
	m.sick.Set(0)
	m.lag.Set(0)
	return moved, nil
}

// replicaInfo is one connected replica in a primary's REPLINFO report.
type replicaInfo struct {
	Addr     string  `json:"addr"`
	Gen      uint64  `json:"gen"`
	SentOff  int64   `json:"sent_off"`
	AckedOff int64   `json:"acked_off"`
	AgeSec   float64 `json:"age_sec"`
}

// replInfo is the REPLINFO reply: the server's replication state as one
// JSON document (matching INFO's convention).
type replInfo struct {
	Role          string        `json:"role"`
	Primary       string        `json:"primary,omitempty"`
	Gen           uint64        `json:"gen"`
	Offset        int64         `json:"offset"`
	DurableOffset int64         `json:"durable_offset,omitempty"`
	LagBytes      int64         `json:"lag_bytes"`
	Connected     bool          `json:"connected"`
	LastPingMs    int64         `json:"last_ping_ms,omitempty"`
	Replicas      []replicaInfo `json:"replicas,omitempty"`
}

func (s *Server) replInfoReply() Reply {
	var info replInfo
	if s.role.Load() == int32(roleReplica) {
		s.mu.Lock()
		rs := s.replica
		s.mu.Unlock()
		info.Role = "replica"
		if rs != nil {
			rs.mu.Lock()
			info.Primary = rs.primary
			info.Gen = rs.gen
			info.Offset = rs.off
			info.LagBytes = rs.lag
			info.Connected = rs.connected
			if !rs.lastPing.IsZero() {
				info.LastPingMs = time.Since(rs.lastPing).Milliseconds()
			}
			rs.mu.Unlock()
		}
	} else {
		info.Role = "primary"
		info.Connected = true
		if aof := s.AOF(); aof != nil {
			mark := aof.Mark()
			_, dur := aof.DurablePos()
			info.Gen = mark.Gen
			info.Offset = mark.Off
			info.DurableOffset = dur
		}
		info.Replicas = s.hub.snapshotInfo()
	}
	b, err := json.Marshal(&info)
	if err != nil {
		return errReply("ERR " + err.Error())
	}
	return bulkReply(b)
}
