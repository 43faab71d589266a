package kvstore

import (
	"bufio"
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
// sync window instead of one fsync per command. The log is the
// store's only persistence: restart recovery is ReplayAOF of the whole
// log, and EnableAOF truncates a torn tail before appending again.
//
// Ordering guarantee: records append in the order each connection
// issues them (a connection's loop is serial), so per-connection
// replay order always matches apply order. Two racing writers on
// *different* connections hitting the same key may log in either
// order — the same ambiguity the live engine exposes to them.
type AOF struct {
	mu   sync.Mutex
	cond *sync.Cond

	f      *os.File
	cw     countingFileWriter
	w      *bufio.Writer
	seq    uint64 // last appended record
	synced uint64 // last record known durable
	err    error  // sticky I/O error: the log is dead once it fails

	// syncing marks a group-commit leader mid-fsync; followers wait on
	// cond instead of issuing their own fsync.
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

// aofHeader starts every log: the magic and one version byte. Records
// follow immediately after. Version 1 logs also carried an 8-byte
// generation id; they are refused like any other foreign file.
const (
	aofMagic     = "PAOF"
	aofHeader    = aofMagic + "\x02"
	aofHeaderLen = len(aofHeader)
)

// checkAOFHeader validates the header at the start of f, a file of
// size bytes. A file shorter than the header passes only when it is a
// prefix of one: the header a crash tore before any record was
// acknowledged (the first record's fsync covers the header too).
func checkAOFHeader(f *os.File, size int64) error {
	var hdr [aofHeaderLen]byte
	n := int(min(size, int64(aofHeaderLen)))
	if _, err := f.ReadAt(hdr[:n], 0); err != nil {
		return fmt.Errorf("kvstore: aof header: %w", err)
	}
	if m := min(n, len(aofMagic)); string(hdr[:m]) != aofMagic[:m] {
		return errors.New("kvstore: aof header: bad magic")
	}
	if n == aofHeaderLen && hdr[len(aofMagic)] != aofHeader[len(aofMagic)] {
		return fmt.Errorf("kvstore: aof header: unsupported version %d", hdr[len(aofMagic)])
	}
	return nil
}

// OpenAOF opens (creating if absent) the log at path for appending. An
// existing log must start with a valid header (EnableAOF truncates
// torn records away before reopening); an empty file, or one holding a
// torn header, gets the rest of the header written. window ≤ 0 selects
// DefaultAOFSyncWindow; reg may be nil.
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
	if err = checkAOFHeader(f, fi.Size()); err == nil && fi.Size() < int64(aofHeaderLen) {
		_, err = f.WriteString(aofHeader[fi.Size():])
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
		window: window,
		m: aofMetrics{
			fsyncs:  reg.Counter("kv_aof_fsyncs_total"),
			records: reg.Counter("kv_aof_records_total"),
			bytes:   reg.Counter("kv_aof_bytes_total"),
			waits:   reg.Counter("kv_aof_group_commit_waits_total"),
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
// happened to hit it.
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
			// Follower: a leader's fsync is in flight; wait for its
			// broadcast.
			a.m.waits.Inc()
			a.cond.Wait()
			continue
		}
		a.leaderCommitLocked()
	}
	// synced >= seq: every record the caller asked about is durable
	// (an earlier fsync covered it), so report success even if the log
	// has failed for *later* records — the sticky error belongs to the
	// syncs that actually lost data.
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

// ReplayAOF applies every complete command in the log at path to the
// engine, in order, stopping cleanly at a truncated tail (a record cut
// off mid-write by a crash loses only itself — it was never
// acknowledged, because acknowledgment waits for fsync), and returns
// the number of commands applied. A missing file replays zero commands
// and returns os.ErrNotExist wrapped for the caller to ignore; a file
// whose header is not this version's fails before anything is applied.
//
// end is the byte offset just past the last complete record: the
// truncation point for torn-tail recovery (EnableAOF truncates there
// before reopening for append, so new records never land behind
// unparseable bytes). A file holding only a torn header replays
// nothing with end zero.
func ReplayAOF(path string, e *Engine) (n int, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if err := checkAOFHeader(f, fi.Size()); err != nil {
		return 0, 0, err
	}
	start := int64(aofHeaderLen)
	if fi.Size() < start {
		return 0, 0, nil
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, 0, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 64<<10)
	var cb CommandBuffer
	end = start
	for {
		cmd, args, err := ReadCommandInto(br, &cb, MaxBulkLen)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// Clean end, or a record truncated mid-payload: every
				// complete record before it has been applied.
				return n, end, nil
			}
			return n, end, fmt.Errorf("kvstore: aof replay at record %d: %w", n+1, err)
		}
		if rep := e.doID(cb.id, cmd, args); rep.Type == ErrorReply {
			return n, end, fmt.Errorf("kvstore: aof replay at record %d: %s", n+1, rep.Str)
		}
		n++
		end = start + cr.n - int64(br.Buffered())
	}
}
