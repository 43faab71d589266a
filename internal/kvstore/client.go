package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// Client is a connection to one store instance. It supports immediate
// request/reply calls and explicit pipelining (paper §IV batches
// requests up to a preset pipeline width before sending, which
// "substantially improves response times"). A Client is safe for
// concurrent use; commands are serialized over the single connection.
//
// A Client built with DialOptions is additionally hardened against a
// misbehaving network: every I/O carries a per-operation deadline
// (Options.OpTimeout), a dead connection is re-dialed with capped
// exponential backoff plus jitter, and idempotent commands are retried
// transparently. Non-idempotent commands (INCR, RPUSH, …) are never
// retried — a failure after the request may have been written is
// ambiguous — and surface ErrNotRetryable so the caller decides.
type Client struct {
	keyed

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	addr        string
	dialTimeout time.Duration
	opts        Options
	rng         *rand.Rand // backoff jitter, seeded with 1 per the repo's determinism convention
	metrics     *clientMetrics

	// pending counts commands written but not yet read (pipelining).
	pending int
	// buffered holds pipelined replies drained early by Do; FlushInto
	// returns them ahead of freshly read ones so no reply is lost.
	buffered []Reply
	// broken marks the connection dead; the next immediate command
	// re-dials before writing.
	broken bool
	// closed is set by Close and never cleared: a closed client refuses
	// every command with ErrClientClosed instead of re-dialing.
	closed bool
}

// Options tunes a Client's fault-tolerance behavior. The zero value
// reproduces the original client: no deadlines, no reconnects, no
// retries.
type Options struct {
	// OpTimeout is the deadline applied to each network operation
	// (one write flush, one reply read). A command's wall-clock bound
	// is therefore 2×OpTimeout: one write + one read. 0 = no deadline.
	OpTimeout time.Duration
	// MaxRetries is how many times an idempotent command is retried
	// (re-dialing first) after an I/O failure. 0 = no retries.
	MaxRetries int
	// RetryBackoff is the initial backoff before the first retry; it
	// doubles per attempt (0 = 5ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = 500ms).
	MaxBackoff time.Duration
	// Dialer overrides how (re)connections are established — the
	// fault-injection hook. nil = net.DialTimeout("tcp", …).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Telemetry, when non-nil, records op latency, errors, retries,
	// reconnects, and pipeline depth into the registry. nil keeps the
	// client uninstrumented with a single-branch fast path.
	Telemetry *telemetry.Registry
}

func (o *Options) normalize() {
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
}

// ErrNotRetryable marks a non-idempotent command that failed after it
// may have reached the server: the client cannot safely re-send it, so
// the caller must decide (re-derive state, abort, or retry a larger
// idempotent unit, e.g. DEL + re-push a whole list).
var ErrNotRetryable = errors.New("kvstore: command not retryable")

// ErrClientClosed is returned by every command issued after Close, on a
// Client or on a ClusterClient and its pooled connections: a closed
// client never re-dials.
var ErrClientClosed = errors.New("kvstore: client closed")

// KV is the store-client surface shared by *Client (one store) and
// *ClusterClient (a slot-routed pool over many stores). Everything
// above the wire — distrib's shipping paths, the partitioner's stores,
// the barrier — is written against it, so a single-store deployment
// and a hash-slot cluster interchange without call-site changes.
type KV interface {
	Get(key string) ([]byte, error)
	Set(key string, val []byte) error
	Del(keys ...string) (int64, error)
	Incr(key string) (int64, error)
	RPush(key string, vals ...[]byte) (int64, error)
	LRange(key string, start, stop int64) ([][]byte, error)
	LRangeChunked(key string, window int64, fn func(batch [][]byte) error) error
	LLen(key string) (int64, error)
	Ping() error
	Pipe(width int) (Pipe, error)
	Close() error
}

// Pipe is the pipelining surface behind KV: a width-bounded command
// batcher whose Finish returns every reply in send order. *Pipeline
// implements it over one connection; *ClusterPipeline fans the same
// ordering guarantee out across slot owners.
type Pipe interface {
	Expect(total int)
	Send(cmd string, args ...[]byte) error
	Finish() ([]Reply, error)
}

// Dial connects to a store at addr with the given timeout, with no
// fault tolerance (zero Options).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, timeout, Options{})
}

// DialOptions connects to a store at addr with per-operation deadlines
// and retry behavior from opts.
func DialOptions(addr string, timeout time.Duration, opts Options) (*Client, error) {
	opts.normalize()
	c := &Client{
		addr:        addr,
		dialTimeout: timeout,
		opts:        opts,
		rng:         rand.New(rand.NewSource(1)),
		metrics:     newClientMetrics(opts.Telemetry),
	}
	// One store owns every key: routing a one-key command is just Do.
	c.keyed.route = func(_, cmd string, args [][]byte) (Reply, error) { return c.Do(cmd, args...) }
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", addr, err)
	}
	c.attach(conn)
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr, c.dialTimeout)
	}
	return net.DialTimeout("tcp", c.addr, c.dialTimeout)
}

// attach installs conn as the client's live connection.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	if c.r == nil {
		c.r = bufio.NewReaderSize(conn, 64<<10)
		c.w = bufio.NewWriterSize(conn, 64<<10)
	} else {
		c.r.Reset(conn)
		c.w.Reset(conn)
	}
	c.broken = false
}

// markBroken declares the connection dead: pending pipelined replies
// are unrecoverable, so pipeline state is discarded and the next
// immediate command re-dials.
func (c *Client) markBroken() {
	c.broken = true
	c.pending = 0
	c.buffered = nil
	if c.conn != nil {
		c.conn.Close()
	}
}

// reconnect re-dials and swaps in the fresh connection. The caller
// holds c.mu.
func (c *Client) reconnect() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("kvstore: reconnect %s: %w", c.addr, err)
	}
	c.attach(conn)
	if c.metrics != nil {
		c.metrics.reconnects.Inc()
	}
	return nil
}

// armDeadline sets the per-operation deadline on the live connection.
func (c *Client) armDeadline() {
	if c.opts.OpTimeout > 0 && c.conn != nil {
		c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
	}
}

// backoff sleeps before retry attempt (1-based), exponential with
// jitter in [d/2, d].
func (c *Client) backoff(attempt int) {
	d := c.opts.RetryBackoff << (attempt - 1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// Close closes the connection for good: every later command, Send and
// FlushInto returns ErrClientClosed without dialing.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// exchange writes one command, drains any pipelined replies into the
// pipeline buffer, and reads the command's own reply. The caller holds
// c.mu. On error the connection is marked broken.
func (c *Client) exchange(cmd string, args [][]byte) (Reply, error) {
	if c.broken {
		if err := c.reconnect(); err != nil {
			return Reply{}, err
		}
	}
	c.armDeadline()
	if err := WriteCommand(c.w, cmd, args...); err != nil {
		c.markBroken()
		return Reply{}, err
	}
	if err := c.w.Flush(); err != nil {
		c.markBroken()
		return Reply{}, err
	}
	// Drain earlier pipelined replies; they belong to the active
	// pipeline, so keep them for its FlushInto instead of discarding.
	for c.pending > 0 {
		c.armDeadline()
		rep, err := ReadReply(c.r)
		if err != nil {
			c.markBroken()
			return Reply{}, err
		}
		c.buffered = append(c.buffered, rep)
		c.pending--
	}
	c.armDeadline()
	rep, err := ReadReply(c.r)
	if err != nil {
		c.markBroken()
		return Reply{}, err
	}
	return rep, nil
}

// Do sends one command and waits for its reply (flushing any pipelined
// commands first so ordering is preserved; their replies are buffered
// for the pipeline's FlushInto, not discarded). Idempotent commands are
// retried per Options when the connection fails — unless pipelined
// commands are in flight, whose replies a re-sent command could never
// recover.
func (c *Client) Do(cmd string, args ...[]byte) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.metrics; m != nil {
		start := time.Now()
		rep, err := c.doLocked(cmd, args)
		m.ops.Inc()
		m.opLatency.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			m.opErrors.Inc()
		}
		return rep, err
	}
	return c.doLocked(cmd, args)
}

// doLocked is Do's body; the caller holds c.mu.
func (c *Client) doLocked(cmd string, args [][]byte) (Reply, error) {
	if c.closed {
		return Reply{}, ErrClientClosed
	}
	if c.pending > 0 {
		return c.exchange(cmd, args)
	}
	rep, err := c.exchange(cmd, args)
	if err == nil || c.opts.MaxRetries <= 0 {
		return rep, err
	}
	if !cmdTable[lookupCmd(cmd)].idempotent {
		return Reply{}, fmt.Errorf("kvstore: %s failed (%v): %w", cmd, err, ErrNotRetryable)
	}
	for attempt := 1; attempt <= c.opts.MaxRetries; attempt++ {
		if c.metrics != nil {
			c.metrics.retries.Inc()
		}
		c.backoff(attempt)
		rep, err = c.exchange(cmd, args)
		if err == nil {
			return rep, nil
		}
	}
	return Reply{}, fmt.Errorf("kvstore: %s failed after %d retries: %w", cmd, c.opts.MaxRetries, err)
}

// Send enqueues a command without reading its reply; FlushInto collects
// all outstanding replies in order. This is the pipelining primitive.
// A command larger than the write buffer is written through here, so
// Send arms the per-operation deadline like every other network
// operation.
func (c *Client) Send(cmd string, args ...[]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if c.broken {
		if err := c.reconnect(); err != nil {
			return err
		}
	}
	c.armDeadline()
	if err := WriteCommand(c.w, cmd, args...); err != nil {
		c.markBroken()
		return err
	}
	c.pending++
	return nil
}

// FlushInto pushes buffered commands to the server and appends every
// outstanding reply to dst, in command order (including replies a
// concurrent Do already drained). Pipelined commands are not retried:
// on a connection failure the pipeline's replies are lost, the error
// is returned, and the caller re-issues the batch (idempotent as a
// unit, e.g. DEL + re-push). The appended replies are freshly
// allocated and owned by the caller.
func (c *Client) FlushInto(dst []Reply) ([]Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return dst, ErrClientClosed
	}
	if c.metrics != nil && c.pending > 0 {
		c.metrics.pipelineDepth.Observe(int64(c.pending))
	}
	c.armDeadline()
	if err := c.w.Flush(); err != nil {
		c.markBroken()
		return dst, err
	}
	dst = append(dst, c.buffered...)
	c.buffered = nil
	for c.pending > 0 {
		c.armDeadline()
		rep, err := ReadReply(c.r)
		if err != nil {
			c.markBroken()
			return dst, err
		}
		dst = append(dst, rep)
		c.pending--
	}
	return dst, nil
}

// ErrNil is returned by typed helpers when the key does not exist.
var ErrNil = errors.New("kvstore: nil reply")

// keyed is the typed one-key command set, written once and embedded in
// both Client and ClusterClient. The two differ in exactly one thing —
// how a command reaches the store that owns its key — and that is
// route: Client hands it to its one connection, ClusterClient to the
// key's slot owner.
type keyed struct {
	route func(key, cmd string, args [][]byte) (Reply, error)
}

// call routes cmd key rest... and folds an error reply into the error.
func (k keyed) call(cmd, key string, rest ...[]byte) (Reply, error) {
	args := make([][]byte, 1, 1+len(rest))
	args[0] = []byte(key)
	rep, err := k.route(key, cmd, append(args, rest...))
	if err != nil {
		return Reply{}, err
	}
	if err := rep.Err(); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// Get fetches a string key; ErrNil if absent.
func (k keyed) Get(key string) ([]byte, error) {
	rep, err := k.call("GET", key)
	if err != nil {
		return nil, err
	}
	if rep.Type == NullBulk {
		return nil, ErrNil
	}
	return rep.Bulk, nil
}

// Set stores a string key.
func (k keyed) Set(key string, val []byte) error {
	_, err := k.call("SET", key, val)
	return err
}

// Incr atomically increments a counter key and returns the new value.
func (k keyed) Incr(key string) (int64, error) {
	rep, err := k.call("INCR", key)
	return rep.Int, err
}

// RPush appends values to a list and returns the new length.
func (k keyed) RPush(key string, vals ...[]byte) (int64, error) {
	rep, err := k.call("RPUSH", key, vals...)
	return rep.Int, err
}

// LLen returns a list's length.
func (k keyed) LLen(key string) (int64, error) {
	rep, err := k.call("LLEN", key)
	return rep.Int, err
}

// LRange fetches list elements in [start, stop] (inclusive, negative
// indices count from the end, as in Redis). The elements are freshly
// allocated and may be retained.
func (k keyed) LRange(key string, start, stop int64) ([][]byte, error) {
	rep, err := k.call("LRANGE", key,
		[]byte(strconv.FormatInt(start, 10)), []byte(strconv.FormatInt(stop, 10)))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(rep.Array))
	for i, el := range rep.Array {
		out[i] = el.Bulk
	}
	return out, nil
}

// LRangeChunked streams a list through fn in bounded LRANGE windows of
// at most window elements, so a huge list (a recovery re-read of a
// whole shard) never materializes in memory at once. A non-nil error
// from fn stops the scan and is returned.
func (k keyed) LRangeChunked(key string, window int64, fn func(batch [][]byte) error) error {
	_, err := k.LRangeFrom(key, 0, window, fn)
	return err
}

// LRangeFrom reads a list from the given start index in fixed-size
// windows, calling fn with each non-empty batch, and returns the index
// one past the last element read. A stream consumer can tail a list
// producers keep RPUSHing to: persist the returned cursor and pass it
// back as start on the next poll.
func (k keyed) LRangeFrom(key string, start, window int64, fn func(batch [][]byte) error) (int64, error) {
	if window < 1 {
		return start, fmt.Errorf("kvstore: lrange window %d, need ≥ 1", window)
	}
	if start < 0 {
		start = 0
	}
	for {
		batch, err := k.LRange(key, start, start+window-1)
		if err != nil {
			return start, err
		}
		if len(batch) == 0 {
			return start, nil
		}
		if err := fn(batch); err != nil {
			return start, err
		}
		start += int64(len(batch))
		if int64(len(batch)) < window {
			return start, nil
		}
	}
}

// Del removes keys, returning how many existed. No keys is 0 without a
// round trip (the server would answer an arity error).
func (c *Client) Del(keys ...string) (int64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	rep, err := c.Do("DEL", args...)
	if err != nil {
		return 0, err
	}
	if err := rep.Err(); err != nil {
		return 0, err
	}
	return rep.Int, nil
}

// Ping round-trips the connection.
func (c *Client) Ping() error {
	rep, err := c.Do("PING")
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	if rep.Str != "PONG" {
		return fmt.Errorf("kvstore: unexpected ping reply %q", rep.Str)
	}
	return nil
}

// Pipeline is a convenience wrapper enforcing a maximum width: Send
// auto-flushes once width commands are queued, mirroring the preset
// pipeline width of paper §IV.
//
// Reply accumulation is bounded by preallocation: call Expect with the
// batch's total command count (known to every shipping path) and the
// accumulator is sized once instead of regrowing across a long ship.
type Pipeline struct {
	c       *Client
	width   int
	queued  int
	replies []Reply
}

// NewPipeline creates a pipeline of the given width (≥ 1).
func (c *Client) NewPipeline(width int) (*Pipeline, error) {
	if width < 1 {
		return nil, fmt.Errorf("kvstore: pipeline width %d, need ≥ 1", width)
	}
	return &Pipeline{c: c, width: width}, nil
}

// Pipe is NewPipeline behind the KV interface. The explicit nil-error
// guard keeps a typed-nil *Pipeline out of the interface value.
func (c *Client) Pipe(width int) (Pipe, error) {
	p, err := c.NewPipeline(width)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Expect hints the total number of commands this pipeline will carry,
// preallocating the reply accumulator in one shot. Calling it is never
// required and a low hint only costs the regrowth it failed to avoid.
func (p *Pipeline) Expect(total int) {
	if total > cap(p.replies) {
		grown := make([]Reply, len(p.replies), total)
		copy(grown, p.replies)
		p.replies = grown
	}
}

// Send enqueues a command, flushing automatically at the width bound.
func (p *Pipeline) Send(cmd string, args ...[]byte) error {
	if err := p.c.Send(cmd, args...); err != nil {
		return err
	}
	p.queued++
	if p.queued >= p.width {
		return p.flush()
	}
	return nil
}

func (p *Pipeline) flush() error {
	// First flush with no Expect hint: size the accumulator for what is
	// in flight, the best lower bound available.
	if p.replies == nil {
		p.replies = make([]Reply, 0, p.queued)
	}
	reps, err := p.c.FlushInto(p.replies)
	p.replies = reps
	p.queued = 0
	return err
}

// Finish flushes any remainder and returns every reply in send order.
//
// Ownership: the returned slice and everything reachable through it
// belong to the caller; the pipeline forgets it and a subsequent batch
// on the same pipeline starts a fresh accumulation.
func (p *Pipeline) Finish() ([]Reply, error) {
	var err error
	if p.queued > 0 {
		err = p.flush()
	}
	out := p.replies
	p.replies = nil
	return out, err
}
