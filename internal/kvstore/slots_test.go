package kvstore

import (
	"strings"
	"testing"
)

func TestSlotForKeyDeterministicAndBounded(t *testing.T) {
	keys := []string{"", "a", "user:1", "user:2", "shard:{7}:x", strings.Repeat("k", 300)}
	for _, k := range keys {
		s := SlotForKey(k)
		if s < 0 || s >= NumSlots {
			t.Fatalf("SlotForKey(%q) = %d, out of [0,%d)", k, s, NumSlots)
		}
		if s2 := SlotForKey(k); s2 != s {
			t.Fatalf("SlotForKey(%q) nondeterministic: %d vs %d", k, s, s2)
		}
		if sb := slotForKeyBytes([]byte(k)); sb != s {
			t.Fatalf("slotForKeyBytes(%q) = %d, SlotForKey = %d", k, sb, s)
		}
	}
}

func TestSlotForKeyHashTags(t *testing.T) {
	// Same {tag} → same slot regardless of the surrounding key.
	a, b := SlotForKey("user:{42}:name"), SlotForKey("user:{42}:email")
	if a != b {
		t.Errorf("hashtag keys map to slots %d and %d, want equal", a, b)
	}
	if got := SlotForKey("42"); got != a {
		t.Errorf("SlotForKey({42}-tagged) = %d, SlotForKey(42) = %d, want equal", a, got)
	}
	// Empty tag "{}" is not a tag: the whole key hashes.
	if SlotForKey("{}ab") == SlotForKey("{}cd") && SlotForKey("ab") != SlotForKey("cd") {
		t.Error("empty hashtag collapsed distinct keys")
	}
}

func TestSplitSlotsCoversEverySlotOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = string(rune('a' + i))
		}
		tab, err := newSlotTable(SplitSlots(addrs))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for s := 0; s < NumSlots; s++ {
			if tab.owner[s] == "" {
				t.Fatalf("n=%d: slot %d unassigned", n, s)
			}
		}
	}
}

func TestSlotTableRejectsConflicts(t *testing.T) {
	_, err := newSlotTable([]SlotRange{
		{Lo: 0, Hi: 511, Addr: "a"},
		{Lo: 500, Hi: 1023, Addr: "b"},
	})
	if err == nil {
		t.Error("overlapping ranges with different owners accepted")
	}
	// Same owner overlapping is fine (idempotent assignment).
	if _, err := newSlotTable([]SlotRange{
		{Lo: 0, Hi: 511, Addr: "a"},
		{Lo: 500, Hi: 600, Addr: "a"},
	}); err != nil {
		t.Errorf("same-owner overlap rejected: %v", err)
	}
}

func TestSlotTableRangesRoundtrip(t *testing.T) {
	in := SplitSlots([]string{"n1", "n2", "n3"})
	tab, err := newSlotTable(in)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.ranges()
	if len(out) != len(in) {
		t.Fatalf("ranges() = %+v, want %+v", out, in)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("range %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestParseMoved(t *testing.T) {
	slot, addr, ok := parseMoved(errReply("MOVED 712 10.0.0.3:7002"))
	if !ok || slot != 712 || addr != "10.0.0.3:7002" {
		t.Fatalf("parseMoved = %d %q %v", slot, addr, ok)
	}
	for _, bad := range []Reply{
		errReply("ERR other"),
		errReply("MOVED"),
		errReply("MOVED abc h:1"),
		errReply("MOVED 9999 h:1"),
		errReply("MOVED 7 "),
		{Type: SimpleString, Str: "MOVED 7 h:1"},
	} {
		if _, _, ok := parseMoved(bad); ok {
			t.Errorf("parseMoved accepted %+v", bad)
		}
	}
}

// startSlotServer runs a server that owns only the given ranges; self
// is its advertised cluster address (distinct from the real listen
// address so tests can assert MOVED targets exactly).
func startSlotServer(t *testing.T, self string, ranges []SlotRange) (string, *Server) {
	t.Helper()
	srv := NewServer(nil)
	if err := srv.SetClusterSlots(self, ranges); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// findKeyInSlots returns a key whose slot falls inside [lo, hi].
func findKeyInSlots(t *testing.T, lo, hi int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := "probe" + string(rune('0'+i%10)) + ":" + strings.Repeat("x", i/10%5) + string(rune('a'+i%26)) + string(rune('a'+i/26%26))
		if s := SlotForKey(k); s >= lo && s <= hi {
			return k
		}
	}
	t.Fatal("no key found in slot range")
	return ""
}

func TestServerMovedRedirect(t *testing.T) {
	// This node owns the lower half; the upper half belongs to a peer.
	ranges := []SlotRange{
		{Lo: 0, Hi: 511, Addr: "self:1"},
		{Lo: 512, Hi: 1023, Addr: "peer:2"},
	}
	addr, _ := startSlotServer(t, "self:1", ranges)
	c := dialTest(t, addr)

	local := findKeyInSlots(t, 0, 511)
	foreign := findKeyInSlots(t, 512, 1023)

	if err := c.Set(local, []byte("v")); err != nil {
		t.Fatalf("owned-slot SET failed: %v", err)
	}
	rep, err := c.Do("SET", []byte(foreign), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	slot, movedTo, ok := parseMoved(rep)
	if !ok {
		t.Fatalf("foreign-slot SET reply = %+v, want MOVED", rep)
	}
	if movedTo != "peer:2" || slot != SlotForKey(foreign) {
		t.Errorf("MOVED %d %s, want MOVED %d peer:2", slot, movedTo, SlotForKey(foreign))
	}
	// Keyless commands always run locally.
	if err := c.Ping(); err != nil {
		t.Errorf("PING in cluster mode: %v", err)
	}
	// Multi-key commands redirect if ANY key is foreign.
	rep, err = c.Do("DEL", []byte(local), []byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := parseMoved(rep); !ok {
		t.Errorf("DEL with one foreign key = %+v, want MOVED", rep)
	}
}

func TestServerClusterDownForUnassignedSlot(t *testing.T) {
	// Only the lower half is assigned at all.
	addr, _ := startSlotServer(t, "self:1", []SlotRange{{Lo: 0, Hi: 511, Addr: "self:1"}})
	c := dialTest(t, addr)
	orphan := findKeyInSlots(t, 512, 1023)
	rep, err := c.Do("GET", []byte(orphan))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != ErrorReply || !strings.HasPrefix(rep.Str, "CLUSTERDOWN") {
		t.Errorf("unassigned-slot GET = %+v, want CLUSTERDOWN", rep)
	}
}

func TestServerClusterSlotsReply(t *testing.T) {
	ranges := SplitSlots([]string{"n:1", "n:2", "n:3"})
	addr, _ := startSlotServer(t, "n:1", ranges)
	c := dialTest(t, addr)
	rep, err := c.Do("CLUSTER", []byte("SLOTS"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != Array || len(rep.Array) != 3 {
		t.Fatalf("CLUSTER SLOTS = %+v, want 3-element array", rep)
	}
	for i, el := range rep.Array {
		if el.Type != Array || len(el.Array) != 3 {
			t.Fatalf("entry %d = %+v, want [lo hi addr]", i, el)
		}
		if int(el.Array[0].Int) != ranges[i].Lo || int(el.Array[1].Int) != ranges[i].Hi ||
			string(el.Array[2].Bulk) != ranges[i].Addr {
			t.Errorf("entry %d = [%d %d %s], want %+v",
				i, el.Array[0].Int, el.Array[1].Int, el.Array[2].Bulk, ranges[i])
		}
	}
}

func TestServerNotInClusterMode(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	rep, err := c.Do("CLUSTER", []byte("SLOTS"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Error("CLUSTER SLOTS on a standalone server must error")
	}
}
