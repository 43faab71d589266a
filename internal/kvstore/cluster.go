package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// ClusterClient routes commands across a slot-partitioned set of
// kvstored processes: key → hash slot → owning store, with one pooled
// *Client per store and MOVED redirects chased and cached. It
// implements KV, so everything written against a single store — the
// distrib shipping paths, the partitioner, the barrier — points at a
// cluster unchanged.
//
// The slot table is primed from any reachable seed via CLUSTER SLOTS
// and repaired lazily: a MOVED reply rewrites the one slot it names, a
// missing owner triggers a full refresh. The typed one-key commands are
// the embedded set Client shares, routed by doKey; the multi-key DEL is
// split by owner. A pipeline writes one list, so Pipe hands out the
// pipeline of that list's owner.
type ClusterClient struct {
	keyed

	mu      sync.Mutex
	closed  bool // set by Close: no connection is dialed afterwards
	timeout time.Duration
	opts    Options
	conns   map[string]*Client
	owner   [NumSlots]string
	seeds   []string

	moved *telemetry.Counter // client-side MOVED redirects chased
}

// maxRedirects bounds a doKey MOVED chase; a table more than a few
// hops stale means the cluster map is cyclic garbage. Hops after the
// first sleep hopBackoff, doubling up to maxHopBackoff — a node that is
// restarting makes clients wait, not spin.
const (
	maxRedirects  = 4
	hopBackoff    = 2 * time.Millisecond
	maxHopBackoff = 250 * time.Millisecond
)

// DialCluster connects to a slot-partitioned cluster through its
// seeds: the first reachable seed's CLUSTER SLOTS primes the slot
// table, and per-store connections are dialed on demand with the same
// timeout and Options a single-store DialOptions would use.
//
// Each node's slot map is fixed for its lifetime. A MOVED chase repairs
// a client table that disagrees with the nodes (a seed started with an
// older map, nodes restarted with a new one); a refresh after a dial
// error finds the map again once a restarted node answers.
func DialCluster(seeds []string, timeout time.Duration, opts Options) (*ClusterClient, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("kvstore: cluster dial with no seeds")
	}
	cc := &ClusterClient{
		timeout: timeout,
		opts:    opts,
		conns:   make(map[string]*Client),
		seeds:   append([]string(nil), seeds...),
		moved:   opts.Telemetry.Counter("kv_cluster_client_moved_total"),
	}
	cc.keyed = newKeyed(cc.doKey)
	if err := cc.refresh(); err != nil {
		cc.Close()
		return nil, err
	}
	return cc, nil
}

// refresh re-primes the slot table from the first reachable node
// (known connections first, then seeds).
func (cc *ClusterClient) refresh() error {
	cc.mu.Lock()
	addrs := make([]string, 0, len(cc.conns)+len(cc.seeds))
	for a := range cc.conns {
		addrs = append(addrs, a)
	}
	addrs = append(addrs, cc.seeds...)
	cc.mu.Unlock()
	var lastErr error
	for _, addr := range addrs {
		c, err := cc.clientFor(addr)
		if err != nil {
			lastErr = err
			continue
		}
		rep, err := c.Do("CLUSTER", []byte("SLOTS"))
		if err != nil {
			lastErr = err
			continue
		}
		if err := rep.Err(); err != nil {
			lastErr = err
			continue
		}
		ranges, err := parseSlots(rep)
		if err != nil {
			lastErr = err
			continue
		}
		cc.mu.Lock()
		cc.owner = [NumSlots]string{}
		for _, r := range ranges {
			for s := r.Lo; s <= r.Hi; s++ {
				cc.owner[s] = r.Addr
			}
		}
		cc.mu.Unlock()
		return nil
	}
	return fmt.Errorf("kvstore: cluster slots unavailable from any node: %w", lastErr)
}

// parseSlots decodes a CLUSTER SLOTS array of [lo, hi, addr] entries;
// any further elements of an entry are ignored, as Redis clients do.
func parseSlots(rep Reply) ([]SlotRange, error) {
	if rep.Type != Array {
		return nil, fmt.Errorf("kvstore: CLUSTER SLOTS reply is %v, want array", rep.Type)
	}
	out := make([]SlotRange, 0, len(rep.Array))
	for _, el := range rep.Array {
		if el.Type != Array || len(el.Array) < 3 ||
			el.Array[0].Type != Integer || el.Array[1].Type != Integer ||
			el.Array[2].Type != BulkString {
			return nil, fmt.Errorf("kvstore: malformed CLUSTER SLOTS entry")
		}
		out = append(out, SlotRange{
			Lo:   int(el.Array[0].Int),
			Hi:   int(el.Array[1].Int),
			Addr: string(el.Array[2].Bulk),
		})
	}
	return out, nil
}

// clientFor returns (dialing on demand) the pooled connection to addr;
// after Close it returns ErrClientClosed and dials nothing.
func (cc *ClusterClient) clientFor(addr string) (*Client, error) {
	cc.mu.Lock()
	c, ok := cc.conns[addr]
	closed := cc.closed
	cc.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	if ok {
		return c, nil
	}
	// Dial outside the lock: a dead node's timeout must not stall
	// routing to live ones.
	fresh, err := DialOptions(addr, cc.timeout, cc.opts)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed { // Close ran during the dial: do not leak the connection
		fresh.Close()
		return nil, ErrClientClosed
	}
	if c, ok := cc.conns[addr]; ok { // raced: keep the winner
		fresh.Close()
		return c, nil
	}
	cc.conns[addr] = fresh
	return fresh, nil
}

func (cc *ClusterClient) ownerOf(slot int) string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.owner[slot]
}

func (cc *ClusterClient) setOwner(slot int, addr string) {
	cc.mu.Lock()
	cc.owner[slot] = addr
	cc.mu.Unlock()
}

// doKey routes one single-slot command to its owner, chasing MOVED
// redirects (each one repairs the table entry it names) up to
// maxRedirects hops. Routing work is bounded: hops after the first wait
// out a capped exponential backoff, and a dead owner costs one failed
// attempt (the table is refreshed and, for idempotent commands, the hop
// retried) instead of an immediate caller-visible error — which is what
// lets a routed workload ride out a node restart. A non-nil win reads
// the reply as an LRANGE window (see readWindow); every hop reads it
// afresh.
func (cc *ClusterClient) doKey(key, cmd string, args [][]byte, win *CommandBuffer) (Reply, error) {
	slot := SlotForKey(key)
	addr := cc.ownerOf(slot)
	backoff := hopBackoff
	var lastErr error
	for hop := 0; hop <= maxRedirects; hop++ {
		if errors.Is(lastErr, ErrClientClosed) {
			return Reply{}, ErrClientClosed
		}
		if hop > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxHopBackoff {
				backoff = maxHopBackoff
			}
		}
		if addr == "" {
			if err := cc.refresh(); err != nil {
				lastErr = err
				continue
			}
			if addr = cc.ownerOf(slot); addr == "" {
				lastErr = fmt.Errorf("kvstore: hash slot %d unassigned", slot)
				continue
			}
		}
		c, err := cc.clientFor(addr)
		if err != nil {
			// Dial failure: nothing was sent, always safe to re-route.
			lastErr = err
			addr = ""
			continue
		}
		rep, err := c.do(cmd, args, win)
		if err != nil {
			lastErr = err
			if !cmdTable[lookupCmd(cmd)].idempotent {
				// The command may have reached the dead owner; re-sending
				// elsewhere could double-apply it. Same contract as
				// Client's ErrNotRetryable.
				return Reply{}, err
			}
			addr = ""
			continue
		}
		if s, to, ok := parseMoved(rep); ok {
			cc.moved.Inc()
			cc.setOwner(s, to)
			lastErr = fmt.Errorf("kvstore: MOVED %d %s", s, to)
			addr = to
			continue
		}
		return rep, nil
	}
	return Reply{}, fmt.Errorf("kvstore: slot %d: gave up after %d routing hops: %v", slot, maxRedirects, lastErr)
}

// Del removes keys across their owners, returning how many existed.
// Each owner's DEL is routed like a one-key command, so a redirect
// repairs the table: a writer that starts a re-issued batch with DEL
// finds the slot's owner again.
func (cc *ClusterClient) Del(keys ...string) (int64, error) {
	groups, err := cc.groupByOwner(keys)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, group := range groups {
		args := make([][]byte, len(group))
		for i, k := range group {
			args[i] = []byte(k)
		}
		rep, err := cc.doKey(group[0], "DEL", args, nil)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return n, err
		}
		n += rep.Int
	}
	return n, nil
}

// groupByOwner splits keys by owner address.
func (cc *ClusterClient) groupByOwner(keys []string) (map[string][]string, error) {
	groups := make(map[string][]string)
	for _, k := range keys {
		addr, err := cc.resolve(SlotForKey(k))
		if err != nil {
			return nil, err
		}
		groups[addr] = append(groups[addr], k)
	}
	return groups, nil
}

// resolve returns slot's owner, refreshing the table once if it is
// unknown.
func (cc *ClusterClient) resolve(slot int) (string, error) {
	if addr := cc.ownerOf(slot); addr != "" {
		return addr, nil
	}
	if err := cc.refresh(); err != nil {
		return "", err
	}
	if addr := cc.ownerOf(slot); addr != "" {
		return addr, nil
	}
	return "", fmt.Errorf("kvstore: hash slot %d unassigned", slot)
}

// Close closes every pooled connection; later commands, through the
// cluster client or a connection it pooled, return ErrClientClosed.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	cc.closed = true
	conns := cc.conns
	cc.conns = make(map[string]*Client)
	cc.mu.Unlock()
	var err error
	for _, c := range conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Pipe returns a pipeline on the connection to key's owner. Every
// command sent through it must name key's slot: a reply that carries a
// MOVED redirect fails the batch, and the writer re-issues it from its
// DEL, which repairs the table.
func (cc *ClusterClient) Pipe(key string, width int) (*Pipeline, error) {
	addr, err := cc.resolve(SlotForKey(key))
	if err != nil {
		return nil, err
	}
	c, err := cc.clientFor(addr)
	if err != nil {
		return nil, err
	}
	return c.Pipe(key, width)
}
