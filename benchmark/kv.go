package main

import (
	"errors"
	"strings"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/telemetry"
)

const dialTimeout = 5 * time.Second

// servers is a set of in-process kvstore servers on loopback TCP.
type servers struct {
	srv   []*kvstore.Server
	addrs []string
}

// startServers starts n servers. before, when non-nil, configures
// server i before it listens (telemetry, AOF).
func startServers(n int, before func(i int, s *kvstore.Server) error) (*servers, error) {
	ss := &servers{}
	for i := 0; i < n; i++ {
		srv := kvstore.NewServer(nil)
		if before != nil {
			if err := before(i, srv); err != nil {
				ss.close()
				return nil, err
			}
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			ss.close()
			return nil, err
		}
		ss.srv = append(ss.srv, srv)
		ss.addrs = append(ss.addrs, addr)
	}
	return ss, nil
}

func (ss *servers) close() error {
	var errs []error
	for _, s := range ss.srv {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// counter sums every counter of the snapshot named exactly name or
// name{labels}; a nil snapshot reads 0.
func counter(s *telemetry.Snapshot, name string) float64 {
	if s == nil {
		return 0
	}
	var total int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return float64(total)
}

// snap snapshots a registry; a nil registry (the timed pass) gives nil.
func snap(reg *telemetry.Registry) *telemetry.Snapshot {
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

// kvServerMetrics records what the servers' registry counted between
// two snapshots.
func kvServerMetrics(s sample, before, after *telemetry.Snapshot) {
	if after == nil {
		return
	}
	s["kvstore.bytes_in"] = counter(after, "kv_server_bytes_in_total") - counter(before, "kv_server_bytes_in_total")
	s["kvstore.bytes_out"] = counter(after, "kv_server_bytes_out_total") - counter(before, "kv_server_bytes_out_total")
	s["kvstore.commands"] = counter(after, "kv_server_commands_total") - counter(before, "kv_server_commands_total")
}
