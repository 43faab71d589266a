package kvstore

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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

// logReader reads a log from a file offset and knows the offset of
// its next unread byte through bufio's read-ahead, so replay can note
// where each record starts and ends, and seek between records.
type logReader struct {
	cr *countingReader // cr.n is the file offset of the next byte cr reads
	br *bufio.Reader
}

func newLogReader(f *os.File) logReader {
	cr := &countingReader{r: f}
	return logReader{cr: cr, br: bufio.NewReaderSize(cr, 64<<10)}
}

func (lr *logReader) offset() int64 {
	return lr.cr.n - int64(lr.br.Buffered())
}

// seek moves to file offset off: within the read-ahead it discards,
// elsewhere it seeks the file and drops the read-ahead.
func (lr *logReader) seek(off int64) error {
	if d := off - lr.offset(); d >= 0 && d <= int64(lr.br.Buffered()) {
		_, err := lr.br.Discard(int(d))
		return err
	}
	if _, err := lr.cr.r.(io.Seeker).Seek(off, io.SeekStart); err != nil {
		return err
	}
	lr.cr.n = off
	lr.br.Reset(lr.cr)
	return nil
}

// span is the byte range of consecutive records in a log.
type span struct{ start, end int64 }

// ReplayAOF applies the log at path to the engine, in order, stopping
// cleanly at a truncated tail (a record cut off mid-write by a crash
// loses only itself — it was never acknowledged, because
// acknowledgment waits for fsync), and returns n, the number of
// complete records read. A missing file replays zero commands and
// returns os.ErrNotExist wrapped for the caller to ignore; a file
// whose header is not this version's fails before anything is
// applied.
//
// Replay reads the log once and leaves the store applying every record
// in order would leave, without building the lists a log drops again.
// A partition write is a DEL of its key followed by RPUSHes, so once a
// key has been deleted, replay defers its pushes: it checks their
// framing, copies no value, and notes where they lie. A later DEL or
// SET of the key drops them unread; any other record naming the key,
// or the end of replay, reads them back and applies them first. A
// deferred push counts in n when it is read, applied or not. Pushes to
// a key the log has not deleted, and every other record, are applied
// as they are read, so a log that rewrites nothing replays in one read.
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
	lr := newLogReader(f)
	if err := lr.seek(start); err != nil {
		return 0, 0, err
	}
	var cb CommandBuffer
	var d *deferral // nil until the log deletes a key
	var skim func(cmdID, []byte) bool
	end = start
	for {
		at := end
		cmd, args, skimmed, rerr := readCommand(lr.br, &cb, MaxBulkLen, skim)
		if rerr != nil {
			// io.EOF is the clean end, io.ErrUnexpectedEOF a record
			// truncated mid-payload: every complete record before it
			// has been read. Anything else is a record replay refuses.
			if !errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("kvstore: aof replay at record %d: %w", n+1, rerr)
			}
			break
		}
		if skimmed {
			end = lr.offset()
			d.add(at, end)
			n++
			continue
		}
		if d != nil {
			keys := args[:cmdTable[cb.id].keys.count(len(args))]
			if spans := d.take(keys); spans != nil {
				if !(cb.id == cmdDel || cb.id == cmdSet && len(args) == 2) {
					// The record reads the key: apply its pushes,
					// then read the record again.
					if err = applySpans(&lr, &cb, e, spans); err != nil {
						break
					}
					if err = lr.seek(at); err != nil {
						break
					}
					continue
				}
				// A DEL or SET of the key drops them.
			}
		}
		if rep := e.doID(cb.id, cmd, args); rep.Type == ErrorReply {
			err = fmt.Errorf("kvstore: aof replay at record %d: %s", n+1, rep.Str)
			break
		}
		if cb.id == cmdDel {
			if d == nil {
				d = &deferral{e: e, keys: make(map[string]*[]span)}
				skim = d.skim
			}
			d.mark(args)
		}
		n++
		end = lr.offset()
	}
	// Replay has stopped: the pushes still deferred stand.
	if aerr := applySpans(&lr, &cb, e, d.rest()); err == nil {
		err = aerr
	}
	return n, end, err
}

// deferral is replay's state of the keys the log has deleted: for
// each, the spans of its pushes read since that no record has applied
// or dropped.
type deferral struct {
	e      *Engine
	keys   map[string]*[]span
	pushes *[]span // the last push skim deferred: its key's spans
}

// skim reports whether replay defers a push onto key: the log has
// deleted key, and key holds no string, onto which the push must fail
// as it would.
func (d *deferral) skim(id cmdID, key []byte) bool {
	if id != cmdRPush {
		return false
	}
	d.pushes = d.keys[string(key)]
	return d.pushes != nil && !d.e.isString(string(key))
}

// add notes the push skim deferred, which spans at to end.
func (d *deferral) add(at, end int64) {
	p := *d.pushes
	if len(p) > 0 && p[len(p)-1].end == at {
		p[len(p)-1].end = end
		return
	}
	*d.pushes = append(p, span{at, end})
}

// take returns the pushes deferred for keys and forgets them, or nil
// when there are none. Only DEL names more than one key.
func (d *deferral) take(keys [][]byte) (spans []span) {
	for _, k := range keys {
		if p := d.keys[string(k)]; p != nil && len(*p) > 0 {
			spans = append(spans, *p...)
			*p = (*p)[:0]
		}
	}
	return spans
}

// mark starts deferring the pushes onto keys.
func (d *deferral) mark(keys [][]byte) {
	for _, k := range keys {
		if d.keys[string(k)] == nil {
			d.keys[string(k)] = new([]span)
		}
	}
}

// rest returns every push still deferred, in log order.
func (d *deferral) rest() []span {
	if d == nil {
		return nil
	}
	var all []span
	for _, p := range d.keys {
		all = append(all, *p...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	return all
}

// applySpans reads back the deferred pushes in spans and applies them.
// Their framing was checked when replay skimmed them, and their keys
// hold no string, so neither reading nor applying them can fail short
// of an I/O error.
func applySpans(lr *logReader, cb *CommandBuffer, e *Engine, spans []span) error {
	for _, sp := range spans {
		if err := lr.seek(sp.start); err != nil {
			return err
		}
		for lr.offset() < sp.end {
			cmd, args, err := ReadCommandInto(lr.br, cb, MaxBulkLen)
			if err != nil {
				return fmt.Errorf("kvstore: aof replay: deferred push: %w", err)
			}
			if rep := e.doID(cb.id, cmd, args); rep.Type == ErrorReply {
				return fmt.Errorf("kvstore: aof replay: deferred push: %s", rep.Str)
			}
		}
	}
	return nil
}
