package kvstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Hash-slot cluster mode. The keyspace is divided into NumSlots hash
// slots; each kvstored process is assigned a slot range and answers
// MOVED redirects for keys it does not own, Redis-Cluster style but
// sized for the paper's deployment (one store per cluster node, a few
// dozen nodes at most): 1024 slots, FNV-1a slot hashing, and hash tags
// ({...}) so related keys can be pinned to one slot.

// NumSlots is the fixed size of the hash-slot space (a power of two,
// so slot selection is a mask).
const NumSlots = 1024

// SlotForKey maps a key to its hash slot. If the key contains a
// nonempty {tag}, only the tag hashes — "user:{42}:a" and
// "user:{42}:b" share a slot, the escape hatch for multi-key commands
// that must land on one node.
func SlotForKey(key string) int {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], '}'); j > 0 {
			key = key[i+1 : i+1+j]
		}
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (NumSlots - 1))
}

// slotForKeyBytes is SlotForKey over the wire's []byte arguments
// without a string conversion.
func slotForKeyBytes(key []byte) int {
	if i := indexByte(key, '{'); i >= 0 {
		if j := indexByte(key[i+1:], '}'); j > 0 {
			key = key[i+1 : i+1+j]
		}
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (NumSlots - 1))
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// SlotRange assigns the inclusive slot range [Lo, Hi] to the store at
// Addr.
type SlotRange struct {
	Lo, Hi int
	Addr   string
}

// SplitSlots divides the full slot space evenly across addrs — the
// standard way to stand up an N-process cluster.
func SplitSlots(addrs []string) []SlotRange {
	n := len(addrs)
	out := make([]SlotRange, 0, n)
	for i, a := range addrs {
		lo := i * NumSlots / n
		hi := (i+1)*NumSlots/n - 1
		out = append(out, SlotRange{Lo: lo, Hi: hi, Addr: a})
	}
	return out
}

// slotTable is the resolved slot→owner map a server or routing client
// works from.
type slotTable struct {
	owner [NumSlots]string
}

func newSlotTable(ranges []SlotRange) (*slotTable, error) {
	t := &slotTable{}
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi >= NumSlots || r.Lo > r.Hi {
			return nil, fmt.Errorf("kvstore: slot range %d-%d out of bounds", r.Lo, r.Hi)
		}
		if r.Addr == "" {
			return nil, fmt.Errorf("kvstore: slot range %d-%d has no address", r.Lo, r.Hi)
		}
		for s := r.Lo; s <= r.Hi; s++ {
			if prev := t.owner[s]; prev != "" && prev != r.Addr {
				return nil, fmt.Errorf("kvstore: slot %d assigned to both %s and %s", s, prev, r.Addr)
			}
			t.owner[s] = r.Addr
		}
	}
	return t, nil
}

// ranges reconstructs the table as maximal contiguous ranges, sorted
// by Lo — the CLUSTER SLOTS reply shape.
func (t *slotTable) ranges() []SlotRange {
	var out []SlotRange
	for s := 0; s < NumSlots; {
		a := t.owner[s]
		if a == "" {
			s++
			continue
		}
		lo := s
		for s < NumSlots && t.owner[s] == a {
			s++
		}
		out = append(out, SlotRange{Lo: lo, Hi: s - 1, Addr: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// clusterConfig is a server's view of the cluster: the shared slot
// table plus its own advertised address. Both are set once, before
// Listen, so connection goroutines read them without a lock.
type clusterConfig struct {
	self  string
	table *slotTable
}

// checkSlots enforces slot ownership for one command: every key the
// command touches must live in a slot this server owns, else the reply
// is a MOVED redirect (first foreign key wins) pointing at the owner.
// Unassigned slots answer CLUSTERDOWN. ok=false means the command is
// local and should proceed.
func (cc *clusterConfig) checkSlots(id cmdID, args [][]byte) (Reply, bool) {
	// A keyless command has no keys to check: it is always local.
	for _, k := range args[:cmdTable[id].keys.count(len(args))] {
		if rep, moved := cc.checkKey(k); moved {
			return rep, true
		}
	}
	return Reply{}, false
}

func (cc *clusterConfig) checkKey(key []byte) (Reply, bool) {
	slot := slotForKeyBytes(key)
	owner := cc.table.owner[slot]
	if owner == "" {
		return errReply("CLUSTERDOWN Hash slot " + strconv.Itoa(slot) + " not served"), true
	}
	if owner != cc.self {
		return errReply("MOVED " + strconv.Itoa(slot) + " " + owner), true
	}
	return Reply{}, false
}

// slotsReply renders the table as the CLUSTER SLOTS reply: an array of
// [lo, hi, addr] entries.
func (cc *clusterConfig) slotsReply() Reply {
	rs := cc.table.ranges()
	out := make([]Reply, len(rs))
	for i, r := range rs {
		out[i] = Reply{Type: Array, Array: []Reply{
			intReply(int64(r.Lo)),
			intReply(int64(r.Hi)),
			bulkReply([]byte(r.Addr)),
		}}
	}
	return Reply{Type: Array, Array: out}
}

// parseMoved extracts (slot, addr) from a "MOVED <slot> <addr>" error
// reply; ok=false for any other reply.
func parseMoved(rep Reply) (slot int, addr string, ok bool) {
	if rep.Type != ErrorReply || !strings.HasPrefix(rep.Str, "MOVED ") {
		return 0, "", false
	}
	rest := rep.Str[len("MOVED "):]
	slotS, addr, found := strings.Cut(rest, " ")
	if !found || addr == "" {
		return 0, "", false
	}
	s, err := strconv.Atoi(slotS)
	if err != nil || s < 0 || s >= NumSlots {
		return 0, "", false
	}
	return s, addr, true
}
