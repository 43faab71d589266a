package kvstore

import (
	"runtime"
	"strings"
	"testing"
)

// The command table is the single source of truth for everything the
// store knows about a command; these tests walk every row.

// mixedCase alternates the case of name's letters: "GET" → "gEt".
func mixedCase(name string) string {
	b := []byte(strings.ToLower(name))
	for i := 1; i < len(b); i += 2 {
		b[i] -= 'a' - 'A'
	}
	return string(b)
}

// TestLookupCmdFoldsCase: every row's name resolves back to its own ID
// in upper, lower and mixed case, as a string and as wire bytes,
// without allocating; anything else is cmdNone.
func TestLookupCmdFoldsCase(t *testing.T) {
	seen := make(map[string]cmdID)
	for id := cmdNone + 1; id < numCmdIDs; id++ {
		name := cmdTable[id].name
		if name == "" || name != strings.ToUpper(name) || len(name) > maxCmdNameLen {
			t.Fatalf("row %d: name %q is not a canonical upper-case name within %d bytes", id, name, maxCmdNameLen)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("rows %d and %d share the name %q", prev, id, name)
		}
		seen[name] = id
		for _, spelling := range []string{name, strings.ToLower(name), mixedCase(name)} {
			if got := lookupCmd(spelling); got != id {
				t.Errorf("lookupCmd(%q) = %d, want %d", spelling, got, id)
			}
			wire := []byte(spelling)
			if got := lookupCmd(wire); got != id {
				t.Errorf("lookupCmd([]byte(%q)) = %d, want %d", spelling, got, id)
			}
			if n := testing.AllocsPerRun(100, func() { lookupCmd(spelling); lookupCmd(wire) }); n != 0 {
				t.Errorf("lookupCmd(%q): %.1f allocs/op, want 0", spelling, n)
			}
		}
	}
	if cmdTable[cmdNone].name != "" {
		t.Errorf("cmdNone is named %q", cmdTable[cmdNone].name)
	}
	for _, cmd := range []string{
		"nope", "",
		strings.Repeat("G", maxCmdNameLen),   // fits the fold buffer, matches nothing
		strings.Repeat("G", maxCmdNameLen+1), // too long, no panic
		"GETT", "GE",                         // near misses
		"MSET", "MGET", "PING", // cut: an old AOF holding one fails replay loudly
		"REPLSYNC", "REPLPING", "REPLACK", "REPLINFO", "REPLTAKEOVER", "REPLICAOF", // cut with replication
	} {
		if got := lookupCmd(cmd); got != cmdNone {
			t.Errorf("lookupCmd(%q) = %d, want cmdNone", cmd, got)
		}
	}
}

// The dispatch path must not allocate for case folding: the seed's
// strings.ToUpper(cmd) cost one allocation per command from any
// lowercase client, on every single operation. This is the regression
// test that keeps it dead.
func TestEngineDoLowercaseNoAlloc(t *testing.T) {
	e := NewEngine()
	e.Do("RPUSH", []byte("alloclist"), []byte("a"))

	missing := []byte("allocmissing")
	list := []byte("alloclist")
	cases := []struct {
		name string
		fn   func()
	}{
		{"dbsize lowercase", func() { e.Do("dbsize") }},
		{"llen lowercase", func() { e.Do("llen", list) }},
		{"get missing lowercase", func() { e.Do("get", missing) }},
		{"llen mixed case", func() { e.Do("LlEn", list) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}

func TestNewEngineShardsRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{16, 16},
		{100, 128},
		{1024, 1024},
		{5000, 1024}, // capped
	}
	for _, tc := range cases {
		if got := newEngineShards(tc.in).NumShards(); got != tc.want {
			t.Errorf("newEngineShards(%d) = %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNewEngineShardsDefaultScalesWithProcs(t *testing.T) {
	n := newEngineShards(0).NumShards()
	if n&(n-1) != 0 {
		t.Errorf("default shard count %d is not a power of two", n)
	}
	if n < minDefaultShards {
		t.Errorf("default shard count %d below floor %d", n, minDefaultShards)
	}
	if procs := runtime.GOMAXPROCS(0); n < 2*procs && n < maxShards {
		t.Errorf("default shard count %d does not scale with GOMAXPROCS=%d", n, procs)
	}
	if NewEngine().NumShards() != n {
		t.Error("NewEngine and newEngineShards(0) disagree on the default")
	}
}

func TestShardingPreservesSemantics(t *testing.T) {
	// The same workload against 1 shard and many shards must be
	// indistinguishable.
	single := newEngineShards(1)
	many := newEngineShards(64)
	for _, e := range []*Engine{single, many} {
		for i := 0; i < 200; i++ {
			k := []byte{byte('a' + i%26), byte('0' + i%10)}
			e.Do("SET", k, []byte{byte(i)})
			e.Do("INCR", append([]byte("n:"), k...))
		}
	}
	if single.Size() != many.Size() {
		t.Fatalf("sizes diverge: %d vs %d", single.Size(), many.Size())
	}
	for i := 0; i < 200; i++ {
		k := []byte{byte('a' + i%26), byte('0' + i%10)}
		a, b := single.Do("GET", k), many.Do("GET", k)
		if string(a.Bulk) != string(b.Bulk) {
			t.Fatalf("key %s: %q vs %q", k, a.Bulk, b.Bulk)
		}
	}
}

// TestKeyArgStride pins which arguments the slot check and the routing
// clients treat as keys, for every row.
func TestKeyArgStride(t *testing.T) {
	want := map[string]keyArgs{
		"GET": oneKey, "SET": oneKey, "INCR": oneKey, "RPUSH": oneKey,
		"LLEN": oneKey, "LRANGE": oneKey,
		"DEL": allKeys,
	}
	for id := cmdNone; id < numCmdIDs; id++ {
		spec := cmdTable[id]
		w, keyed := want[spec.name]
		if !keyed {
			w = 0 // keyless: DBSIZE, INFO, CLUSTER, unknown
		}
		if spec.keys != w {
			t.Errorf("%q: keys = %d, want %d", spec.name, spec.keys, w)
		}
	}
}

// TestCmdWritesClassification: writes is exactly the set the AOF must
// log, and nothing that is not safe to re-send is marked idempotent.
func TestCmdWritesClassification(t *testing.T) {
	writes := map[string]bool{
		"SET": true, "DEL": true, "INCR": true, "RPUSH": true,
	}
	idempotent := map[string]bool{
		"GET": true, "SET": true, "DEL": true, "LLEN": true, "LRANGE": true,
		"DBSIZE": true,
	}
	for id := cmdNone; id < numCmdIDs; id++ {
		spec := cmdTable[id]
		if spec.writes != writes[spec.name] {
			t.Errorf("%q: writes = %v — a write missing here escapes the AOF, a read here bloats it", spec.name, spec.writes)
		}
		if spec.idempotent != idempotent[spec.name] {
			t.Errorf("%q: idempotent = %v, want %v", spec.name, spec.idempotent, idempotent[spec.name])
		}
	}
	for _, name := range []string{"INCR", "RPUSH"} {
		if cmdTable[lookupCmd(name)].idempotent {
			t.Errorf("%s marked idempotent: a retry would double-apply it", name)
		}
	}
}

// TestCmdClass pins the kv_server_commands_total{cmd=…} label of every
// row: dashboards and the benchmark sum over these names.
func TestCmdClass(t *testing.T) {
	shared := map[string]string{"CLUSTER": "other", "": "other"}
	labels := make(map[string]bool)
	for id := cmdNone; id < numCmdIDs; id++ {
		spec := cmdTable[id]
		want, ok := shared[spec.name]
		if !ok {
			want = strings.ToLower(spec.name) // every other command counts under its own name
		}
		if spec.class != want {
			t.Errorf("%q: class = %q, want %q", spec.name, spec.class, want)
		}
		labels[spec.class] = true
	}
	// Every label the table carries, and no other.
	for _, l := range []string{"get", "set", "del", "incr", "rpush", "llen", "lrange",
		"dbsize", "info", "other"} {
		if !labels[l] {
			t.Errorf("label %q lost", l)
		}
		delete(labels, l)
	}
	if len(labels) != 0 {
		t.Errorf("new labels %v", labels)
	}
}
