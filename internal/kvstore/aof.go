package kvstore

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// AOF is an append-only command log with group commit. Every write
// command the server applies is framed into the log in RESP (the same
// encoding the wire uses, so replay is a ReadCommandInto loop), and
// durability is batched: writers append and then wait on Sync, and a
// single fsync covers every record that arrived during the previous
// sync window instead of one fsync per command. Layered on the
// snapshot (snapshot = compaction point, AOF = tail since the last
// snapshot), restart recovery replays LoadSnapshotFileMark +
// ReplayAOFSince.
//
// Ordering guarantee: records append in the order each connection
// issues them (a connection's loop is serial), so per-connection
// replay order always matches apply order. Two racing writers on
// *different* connections hitting the same key may log in either
// order — the same ambiguity the live engine exposes to them.
//
// Every log starts with a fixed header carrying a random generation
// id; Reset (the compaction step of a snapshot rewrite) stamps a new
// generation. A snapshot embeds the (generation, offset) AOFMark it
// covers, so restart replay skips exactly the records the snapshot
// already contains — closing the crash window between a rewrite's
// snapshot rename and its log truncate, where a naive replay would
// double-apply non-idempotent commands (INCR, RPUSH, APPEND).
type AOF struct {
	mu   sync.Mutex
	cond *sync.Cond

	f      *os.File
	cw     countingFileWriter
	w      *bufio.Writer
	gen    uint64 // generation id from the file header
	seq    uint64 // last appended record
	synced uint64 // last record known durable (fsync or snapshot)
	err    error  // sticky I/O error: the log is dead once it fails

	// syncing marks a group-commit leader mid-fsync; followers (and
	// Reset) wait on cond instead of issuing their own fsync.
	syncing bool
	closed  bool

	// window throttles fsyncs: consecutive group commits are at least
	// window apart, so a continuous pipelined load costs at most one
	// fsync per window, with every record that arrived in between
	// riding the same barrier.
	window   time.Duration
	lastSync time.Time

	m aofMetrics
}

type aofMetrics struct {
	fsyncs  *telemetry.Counter
	records *telemetry.Counter
	bytes   *telemetry.Counter
	waits   *telemetry.Counter // group-commit follower waits
	resets  *telemetry.Counter // rewrites (snapshot compactions)
	errors  *telemetry.Counter // sticky-error trips
	sick    *telemetry.Gauge   // 1 while the log carries a sticky error
}

// countingFileWriter counts bytes as bufio flushes them to the file;
// the count feeds the kv_aof_bytes_total counter at flush granularity.
type countingFileWriter struct {
	f *os.File
	n *telemetry.Counter
}

func (c countingFileWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// DefaultAOFSyncWindow is the default group-commit window: small
// enough that an acknowledged write is durable within single-digit
// milliseconds, large enough that a deep pipeline's worth of commands
// shares one fsync.
const DefaultAOFSyncWindow = 2 * time.Millisecond

// AOF file header: magic, one version byte, then the 8-byte LE
// generation id. Records follow immediately after.
const (
	aofMagic     = "PAOF"
	aofVersion   = 1
	aofHeaderLen = len(aofMagic) + 1 + 8
)

// AOFMark names a durable position in one log generation: the first
// Off bytes of the log whose header carries Gen. A snapshot embeds the
// mark it covers so restart replay resumes exactly past it; the zero
// mark matches no log (generation ids are never zero).
type AOFMark struct {
	Gen uint64
	Off int64
}

// newAOFGen draws a fresh nonzero generation id.
func newAOFGen() (uint64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("kvstore: aof generation: %w", err)
	}
	g := binary.LittleEndian.Uint64(b[:])
	if g == 0 {
		g = 1
	}
	return g, nil
}

func encodeAOFHeader(gen uint64) [aofHeaderLen]byte {
	var hdr [aofHeaderLen]byte
	copy(hdr[:], aofMagic)
	hdr[len(aofMagic)] = aofVersion
	binary.LittleEndian.PutUint64(hdr[len(aofMagic)+1:], gen)
	return hdr
}

// readAOFHeader validates the header at the start of f and returns the
// generation id. The caller has already ruled out short files.
func readAOFHeader(f *os.File) (uint64, error) {
	var hdr [aofHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("kvstore: aof header: %w", err)
	}
	if string(hdr[:len(aofMagic)]) != aofMagic {
		return 0, errors.New("kvstore: aof header: bad magic")
	}
	if hdr[len(aofMagic)] != aofVersion {
		return 0, fmt.Errorf("kvstore: aof header: unsupported version %d", hdr[len(aofMagic)])
	}
	return binary.LittleEndian.Uint64(hdr[len(aofMagic)+1:]), nil
}

// OpenAOF opens (creating if absent) the log at path for appending. An
// empty file gets a fresh generation header; an existing one must
// start with a valid header (EnableAOF truncates torn bytes away
// before reopening). window ≤ 0 selects DefaultAOFSyncWindow; reg may
// be nil.
func OpenAOF(path string, window time.Duration, reg *telemetry.Registry) (*AOF, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: aof open: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: aof open: %w", err)
	}
	var gen uint64
	if fi.Size() == 0 {
		if gen, err = newAOFGen(); err == nil {
			hdr := encodeAOFHeader(gen)
			_, err = f.Write(hdr[:])
		}
	} else {
		gen, err = readAOFHeader(f)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	if window <= 0 {
		window = DefaultAOFSyncWindow
	}
	a := &AOF{
		f:      f,
		gen:    gen,
		window: window,
		m: aofMetrics{
			fsyncs:  reg.Counter("kv_aof_fsyncs_total"),
			records: reg.Counter("kv_aof_records_total"),
			bytes:   reg.Counter("kv_aof_bytes_total"),
			waits:   reg.Counter("kv_aof_group_commit_waits_total"),
			resets:  reg.Counter("kv_aof_rewrites_total"),
			errors:  reg.Counter("kv_aof_errors_total"),
			sick:    reg.Gauge("kv_aof_error"),
		},
	}
	a.cw = countingFileWriter{f: f, n: a.m.bytes}
	a.w = bufio.NewWriterSize(a.cw, 64<<10)
	a.cond = sync.NewCond(&a.mu)
	return a, nil
}

// setErrLocked records a sticky I/O error and propagates it to the
// kv_aof_error gauge (and error counter), so dashboards see a sick
// disk the moment it fails instead of only the clients whose commands
// happened to hit it. Reset clears the gauge with the error.
func (a *AOF) setErrLocked(err error) {
	if a.err == nil {
		a.m.errors.Inc()
		a.m.sick.Set(1)
	}
	a.err = err
}

// Append frames one command into the log's buffer and returns its
// sequence number; the record is durable only once Sync(seq) returns.
// The argument buffers are copied into the log's buffer before Append
// returns, so callers may recycle them immediately.
func (a *AOF) Append(cmd string, args [][]byte) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, errors.New("kvstore: aof closed")
	}
	if a.err != nil {
		return 0, a.err
	}
	if err := WriteCommand(a.w, cmd, args...); err != nil {
		a.setErrLocked(err)
		return 0, err
	}
	a.seq++
	a.m.records.Inc()
	return a.seq, nil
}

// Sync blocks until every record up to and including seq is durable.
// Group commit: the first waiter becomes the leader, sleeps out the
// remainder of the sync window (batching every record that arrives
// meanwhile), flushes, and fsyncs once; later waiters ride the same
// fsync or the next one.
func (a *AOF) Sync(seq uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.synced < seq {
		if a.err != nil {
			return a.err
		}
		if a.closed {
			return errors.New("kvstore: aof closed before sync")
		}
		if a.syncing {
			// Follower: a leader's fsync is in flight (or a Reset is
			// draining one); wait for its broadcast.
			a.m.waits.Inc()
			a.cond.Wait()
			continue
		}
		a.leaderCommitLocked()
	}
	// synced >= seq: every record the caller asked about is durable
	// (an earlier fsync or a snapshot reset covered it), so report
	// success even if the log has failed for *later* records — the
	// sticky error belongs to the syncs that actually lost data.
	return nil
}

// leaderCommitLocked performs one group commit as the leader. Called
// with a.mu held; releases and reacquires it around the sleep and the
// fsync so appenders keep running.
func (a *AOF) leaderCommitLocked() {
	a.syncing = true
	if a.window > 0 {
		if d := a.window - time.Since(a.lastSync); d > 0 {
			// Hold the fsync back to the window boundary; commands
			// appended during the sleep join this commit.
			a.mu.Unlock()
			time.Sleep(d)
			a.mu.Lock()
		}
	}
	target := a.seq
	err := a.w.Flush()
	a.mu.Unlock()
	// fsync outside the lock: appenders write into the bufio buffer
	// (or, past its capacity, the file) concurrently; those bytes have
	// seq > target and are covered by the next commit.
	if err == nil {
		err = a.f.Sync()
	}
	a.mu.Lock()
	a.lastSync = time.Now()
	a.syncing = false
	a.m.fsyncs.Inc()
	if err != nil {
		a.setErrLocked(err)
	} else if a.synced < target {
		a.synced = target
	}
	a.cond.Broadcast()
}

// DurableMark flushes and fsyncs the log and returns the mark covering
// everything appended so far — the watermark a snapshot embeds so that
// restart replay skips records the snapshot already contains. Must be
// called under the server's exclusive persistence lock (no appends can
// be in flight); in-flight Sync waiters are fine — they observe the
// fsync and return.
func (a *AOF) DurableMark() (AOFMark, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.syncing {
		a.cond.Wait() // drain an in-flight group commit first
	}
	if a.closed {
		return AOFMark{}, errors.New("kvstore: aof closed")
	}
	if a.err != nil {
		return AOFMark{}, a.err
	}
	// Holding a.mu across the fsync is acceptable here: the exclusive
	// persistence lock means no appender is running, and rewrites are
	// rare.
	if err := a.w.Flush(); err != nil {
		a.setErrLocked(err)
		return AOFMark{}, err
	}
	if err := a.f.Sync(); err != nil {
		a.setErrLocked(err)
		return AOFMark{}, err
	}
	fi, err := a.f.Stat()
	if err != nil {
		a.setErrLocked(err)
		return AOFMark{}, err
	}
	a.synced = a.seq
	a.m.fsyncs.Inc()
	a.cond.Broadcast()
	return AOFMark{Gen: a.gen, Off: fi.Size()}, nil
}

// Reset truncates the log after a snapshot has captured everything in
// it — the compaction step of a rewrite — and stamps a fresh
// generation header, so a snapshot carrying the *old* generation's
// mark can never mis-apply it to the new log. Every appended record is
// marked durable (the snapshot holds it), so pending Sync calls
// return. The caller must guarantee the snapshot ordering (the
// server's persistMu write lock does) and must have made the snapshot
// durable first.
func (a *AOF) Reset() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.syncing {
		a.cond.Wait() // drain an in-flight group commit first
	}
	if a.closed {
		return errors.New("kvstore: aof closed")
	}
	gen, err := newAOFGen()
	if err != nil {
		return err
	}
	// Discard buffered frames (the snapshot supersedes them), truncate
	// the file, and write the new generation header. The header is
	// fsynced immediately so the generation switch is durable before
	// any record of the new generation can be acknowledged (a record's
	// own group-commit fsync would also cover it, but Close may follow
	// with no records at all).
	a.w.Reset(a.cw)
	if err := a.f.Truncate(0); err != nil {
		a.setErrLocked(err)
		return fmt.Errorf("kvstore: aof truncate: %w", err)
	}
	if _, err := a.f.Seek(0, io.SeekStart); err != nil {
		a.setErrLocked(err)
		return fmt.Errorf("kvstore: aof seek: %w", err)
	}
	hdr := encodeAOFHeader(gen)
	if _, err := a.f.Write(hdr[:]); err != nil {
		a.setErrLocked(err)
		return fmt.Errorf("kvstore: aof header: %w", err)
	}
	if err := a.f.Sync(); err != nil {
		a.setErrLocked(err)
		return fmt.Errorf("kvstore: aof header sync: %w", err)
	}
	a.gen = gen
	a.synced = a.seq
	a.err = nil
	a.m.sick.Set(0)
	a.m.resets.Inc()
	a.cond.Broadcast()
	return nil
}

// Close flushes, fsyncs, and closes the log.
func (a *AOF) Close() error {
	a.mu.Lock()
	for a.syncing {
		a.cond.Wait()
	}
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	err := a.w.Flush()
	if err == nil {
		err = a.f.Sync()
	}
	if err == nil {
		a.synced = a.seq
	}
	cerr := a.f.Close()
	a.cond.Broadcast()
	a.mu.Unlock()
	if err != nil {
		return fmt.Errorf("kvstore: aof close: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("kvstore: aof close: %w", cerr)
	}
	return nil
}

// abandon closes the log file without flushing or syncing — the crash
// half of Server.Kill. Records still buffered (never fsynced, so never
// acknowledged) are lost, exactly as a real crash would lose them;
// everything a group commit covered stays on disk.
func (a *AOF) abandon() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.f.Close()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// countingReader counts bytes drawn from the underlying reader, so the
// replay loop can locate the end of the last complete record even
// through bufio's read-ahead.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReplayAOFSince applies every complete command in the log at path to
// the engine, in order, stopping cleanly at a truncated tail (a record
// cut off mid-write by a crash loses only itself — it was never
// acknowledged, because acknowledgment waits for fsync), and returns
// the number of commands applied. A missing file replays zero commands
// and returns os.ErrNotExist wrapped for the caller to ignore.
//
// Replay starts after mark: when mark names the log's own generation,
// it resumes at mark.Off — the records before it are already inside
// the snapshot that carried the mark — and a mark from another
// generation (or the zero mark) replays the whole log. The returned
// mark holds the log's generation and the byte offset just past the
// last complete record: the truncation point for torn-tail recovery
// (EnableAOF truncates there before reopening for append, so new
// records never land behind unparseable bytes). A file shorter than
// its header replays nothing with end offset zero — nothing in it was
// ever acknowledged, since the first record fsync would have made the
// header durable too.
func ReplayAOFSince(path string, e *Engine, mark AOFMark) (int, AOFMark, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, AOFMark{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, AOFMark{}, err
	}
	if fi.Size() < int64(aofHeaderLen) {
		return 0, AOFMark{}, nil
	}
	gen, err := readAOFHeader(f)
	if err != nil {
		return 0, AOFMark{}, err
	}
	start := int64(aofHeaderLen)
	if mark.Gen == gen && mark.Off > start {
		// A mark past the file's end means the log shrank out from
		// under the snapshot (external tampering); clamping replays
		// nothing rather than double-applying snapshotted records.
		start = min(mark.Off, fi.Size())
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, AOFMark{}, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 64<<10)
	var cb CommandBuffer
	n := 0
	end := start
	for {
		cmd, args, err := ReadCommandInto(br, &cb, MaxBulkLen)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// Clean end, or a record truncated mid-payload: every
				// complete record before it has been applied.
				return n, AOFMark{Gen: gen, Off: end}, nil
			}
			return n, AOFMark{Gen: gen, Off: end}, fmt.Errorf("kvstore: aof replay at record %d: %w", n+1, err)
		}
		if rep := e.doID(cb.id, cmd, args); rep.Type == ErrorReply {
			return n, AOFMark{Gen: gen, Off: end}, fmt.Errorf("kvstore: aof replay at record %d: %s", n+1, rep.Str)
		}
		n++
		end = start + cr.n - int64(br.Buffered())
	}
}
