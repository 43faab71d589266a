package kvstore

import (
	"net"
	"time"

	"pareto/internal/telemetry"
)

// Telemetry wiring for the data plane. The hot path is the server's
// per-connection command loop, which runs at a few hundred ns/op when
// pipelined — per-command atomic updates (let alone clock reads) would
// not fit the ≤3% overhead budget. Instead each connection keeps plain
// (goroutine-local) counters and flushes them into the shared registry
// at pipeline-flush boundaries, where a syscall already amortizes the
// cost. Latency is measured once per batch and attributed per command
// as the batch mean via ObserveN; with immediate (unpipelined) clients
// every command is its own batch, so nothing is lost there.

// serverMetrics holds the shared (atomic) ends of the server's
// instrumentation, pre-resolved at SetTelemetry time.
type serverMetrics struct {
	// cmds is indexed by cmdID, so the loop does an integer index, not a
	// map lookup or string concat; commands that share a class label in
	// the command table share one counter.
	cmds        [numCmdIDs]*telemetry.Counter
	cmdErrors   *telemetry.Counter
	parseErrors *telemetry.Counter
	bytesIn     *telemetry.Counter
	bytesOut    *telemetry.Counter
	connsTotal  *telemetry.Counter
	connsActive *telemetry.Gauge
	latency     *telemetry.Histogram // batch-mean ns per command
	batchSize   *telemetry.Histogram // commands per flush batch
	moved       *telemetry.Counter   // MOVED redirects answered
	clusterDown *telemetry.Counter   // commands refused: slot unassigned
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		cmdErrors:   reg.Counter("kv_server_command_errors_total"),
		parseErrors: reg.Counter("kv_server_parse_errors_total"),
		bytesIn:     reg.Counter("kv_server_bytes_in_total"),
		bytesOut:    reg.Counter("kv_server_bytes_out_total"),
		connsTotal:  reg.Counter("kv_server_connections_total"),
		connsActive: reg.Gauge("kv_server_connections_active"),
		latency:     reg.Histogram("kv_server_command_latency_ns", telemetry.LatencyBuckets()),
		batchSize:   reg.Histogram("kv_server_batch_commands", telemetry.DepthBuckets()),
		moved:       reg.Counter("kv_cluster_moved_total"),
		clusterDown: reg.Counter("kv_cluster_down_total"),
	}
	for id := range m.cmds {
		m.cmds[id] = reg.Counter(`kv_server_commands_total{cmd="` + cmdTable[id].class + `"}`)
	}
	return m
}

// connStats is one connection's goroutine-local scratch: plain int64s
// bumped per command, flushed to the shared atomics at batch
// boundaries and on connection close.
type connStats struct {
	m          *serverMetrics
	cmds       [numCmdIDs]int64
	errs       int64
	batchN     int64
	batchStart time.Time
	cc         *countingConn
	out        int64 // reply bytes: writes bypass cc, so each flush adds them
}

// begin stamps the batch start on the first command after a flush —
// the single clock read on the batch's ingress side. Called after the
// command is parsed, before it is dispatched.
func (cs *connStats) begin() {
	if cs.batchN == 0 {
		cs.batchStart = time.Now()
	}
}

// observe records one handled command in local scratch.
func (cs *connStats) observe(id cmdID, isErr bool) {
	cs.batchN++
	cs.cmds[id]++
	if isErr {
		cs.errs++
	}
}

// flush pushes local scratch into the shared registry. Called at
// pipeline-flush boundaries (where the reply syscall already happens)
// and from the connection's deferred teardown.
func (cs *connStats) flush() {
	if cs.batchN > 0 {
		dur := time.Since(cs.batchStart).Nanoseconds()
		cs.m.latency.ObserveN(dur/cs.batchN, cs.batchN)
		cs.m.batchSize.Observe(cs.batchN)
		cs.batchN = 0
	}
	for i, n := range cs.cmds {
		if n > 0 {
			cs.m.cmds[i].Add(n)
			cs.cmds[i] = 0
		}
	}
	if cs.errs > 0 {
		cs.m.cmdErrors.Add(cs.errs)
		cs.errs = 0
	}
	if cs.cc.in > 0 {
		cs.m.bytesIn.Add(cs.cc.in)
		cs.cc.in = 0
	}
	if cs.out > 0 {
		cs.m.bytesOut.Add(cs.out)
		cs.out = 0
	}
}

// countingConn counts bytes read at syscall granularity into a plain
// field. Reads happen only on the owning connection goroutine, so no
// atomics are needed; connStats.flush publishes the total.
type countingConn struct {
	net.Conn
	in int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

// clientMetrics is the client-side bundle, resolved once at dial time
// from Options.Telemetry. A nil *clientMetrics means telemetry is off
// and the hot path takes a single-branch detour around the clock reads.
type clientMetrics struct {
	ops           *telemetry.Counter
	opErrors      *telemetry.Counter
	retries       *telemetry.Counter
	reconnects    *telemetry.Counter
	opLatency     *telemetry.Histogram
	pipelineDepth *telemetry.Histogram
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	if reg == nil {
		return nil
	}
	return &clientMetrics{
		ops:           reg.Counter("kv_client_ops_total"),
		opErrors:      reg.Counter("kv_client_op_errors_total"),
		retries:       reg.Counter("kv_client_retries_total"),
		reconnects:    reg.Counter("kv_client_reconnects_total"),
		opLatency:     reg.Histogram("kv_client_op_latency_ns", telemetry.LatencyBuckets()),
		pipelineDepth: reg.Histogram("kv_client_pipeline_depth", telemetry.DepthBuckets()),
	}
}
