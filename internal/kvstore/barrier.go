package kvstore

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Barrier is the global synchronization primitive of paper §IV, built
// on the store's atomic fetch-and-increment: the framework separates
// its phases (pivot extraction, sketch generation, sketch clustering,
// final data partitioning) with barrier waits across all workers.
//
// Each Await round increments a generation-scoped counter and polls
// it, backing off from 1ms to MaxPollInterval, until all parties have
// arrived or its Timeout passes: nothing else releases a waiter. A
// party that need not wait for the others calls Arrive instead, as
// distrib's workers do while their coordinator alone waits. Reusing the
// Barrier value advances the generation automatically, so one Barrier
// synchronizes any number of consecutive phases.
//
// The barrier's state is its keys on the store, not the Barrier value:
// a new Barrier starts at generation 0 whatever the store holds. A
// name reused on a live store without Clear therefore starts released
// (the old counters already read parties, so Await returns at once).
// Give each protocol run its own name, or Clear after every party has
// left.
type Barrier struct {
	client  KV
	name    string
	parties int
	gen     int

	// MaxPollInterval caps Await's poll backoff, which doubles each
	// round so a long wait does not hammer the store; defaults to 50ms.
	MaxPollInterval time.Duration
	// Timeout bounds one Await; defaults to 30s.
	Timeout time.Duration
}

// NewBarrier creates a barrier for the given party count coordinated
// through the store behind client — a single *Client or a
// *ClusterClient (INCR routes to the counter key's slot owner, so all
// parties naturally meet at one store). All parties must use the same
// name and count.
func NewBarrier(client KV, name string, parties int) (*Barrier, error) {
	if parties < 1 {
		return nil, fmt.Errorf("kvstore: barrier parties %d, need ≥ 1", parties)
	}
	if name == "" {
		return nil, errors.New("kvstore: barrier needs a name")
	}
	return &Barrier{
		client:  client,
		name:    name,
		parties: parties,
		Timeout: 30 * time.Second,
	}, nil
}

// ErrBarrierTimeout reports that not all parties arrived in time.
var ErrBarrierTimeout = errors.New("kvstore: barrier timeout")

func (b *Barrier) genKey(gen int) string {
	return "__barrier:" + b.name + ":" + strconv.Itoa(gen)
}

// Clear deletes the counters of every generation this value has
// entered. Call it from one party once all parties are past their last
// Await or Arrive — a party that arrives afterwards recreates its
// counter and waits alone.
func (b *Barrier) Clear() error {
	if b.gen == 0 {
		return nil
	}
	keys := make([]string, b.gen)
	for g := range keys {
		keys[g] = b.genKey(g)
	}
	if _, err := b.client.Del(keys...); err != nil {
		return fmt.Errorf("kvstore: barrier clear: %w", err)
	}
	return nil
}

// Arrive registers this party at the current generation WITHOUT
// waiting for the others, and advances to the next generation. It is
// for a party that learns the phase is over some other way, and for
// one that must abandon the protocol after an error: arriving on its
// remaining barriers releases peers blocked in Await instead of
// leaving them to time out.
func (b *Barrier) Arrive() error {
	key := b.genKey(b.gen)
	b.gen++
	if _, err := b.client.Incr(key); err != nil {
		return fmt.Errorf("kvstore: barrier arrive: %w", err)
	}
	return nil
}

// Await registers this party's arrival at the current generation and
// blocks until all parties arrive or the timeout passes.
func (b *Barrier) Await() error {
	key := b.genKey(b.gen)
	b.gen++
	n, err := b.client.Incr(key)
	if err != nil {
		return fmt.Errorf("kvstore: barrier enter: %w", err)
	}
	if n >= int64(b.parties) {
		return nil
	}
	poll := time.Millisecond
	maxPoll := b.MaxPollInterval
	if maxPoll <= 0 {
		maxPoll = 50 * time.Millisecond
	}
	timeout := b.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		raw, err := b.client.Get(key)
		if err != nil && !errors.Is(err, ErrNil) {
			return fmt.Errorf("kvstore: barrier poll: %w", err)
		}
		if err == nil {
			var cur int64
			for _, ch := range raw {
				if ch < '0' || ch > '9' {
					cur = -1
					break
				}
				cur = cur*10 + int64(ch-'0')
			}
			if cur >= int64(b.parties) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %s generation %d", ErrBarrierTimeout, b.name, b.gen-1)
		}
		time.Sleep(poll)
		poll *= 2
		if poll > maxPoll {
			poll = maxPoll
		}
	}
}
