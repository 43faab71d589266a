package kvstore

// The command table. Everything the store knows about a command apart
// from what it does to the engine — its wire name, the telemetry label
// it counts under, whether the append-only log must record it, whether
// a client may blindly re-send it, and which of its arguments are keys
// — is one row here. The server, the AOF, the cluster slot check and
// both clients read the row; adding a command is one row plus one
// Engine.doID case.

// cmdID identifies one wire command (or cmdNone for an unknown name).
type cmdID uint8

const (
	cmdNone cmdID = iota
	cmdSet
	cmdGet
	cmdDel
	cmdIncr
	cmdRPush
	cmdLLen
	cmdLRange
	cmdDBSize
	// Server-context commands: the engine treats them as unknown, the
	// server intercepts them before engine dispatch.
	cmdInfo
	cmdCluster
	numCmdIDs
)

// keyArgs says which arguments of a command are keys — what the
// cluster slot check must own and what a routing client hashes. The
// zero value is keyless: the command always runs locally.
type keyArgs uint8

const (
	oneKey  keyArgs = iota + 1 // args[0] is the key, the rest is payload
	allKeys                    // every argument is a key (DEL)
)

// count returns how many of a command's n arguments are keys: the
// keys lead the argument list.
func (k keyArgs) count(n int) int {
	switch k {
	case allKeys:
		return n
	case oneKey:
		return min(n, 1)
	}
	return 0
}

// cmdSpec is one row of the command table.
type cmdSpec struct {
	name string // canonical upper-case wire name
	// class is the kv_server_commands_total{cmd=…} label.
	class string
	// writes marks a command that mutates the engine: the set the
	// append-only log must record for replay to reconstruct the store.
	writes bool
	// idempotent marks a command safe to blindly re-send: re-executing
	// it converges to the same store state and reply semantics.
	idempotent bool
	keys       keyArgs
}

var cmdTable = [numCmdIDs]cmdSpec{
	cmdNone:    {class: "other"},
	cmdSet:     {name: "SET", class: "set", writes: true, idempotent: true, keys: oneKey},
	cmdGet:     {name: "GET", class: "get", idempotent: true, keys: oneKey},
	cmdDel:     {name: "DEL", class: "del", writes: true, idempotent: true, keys: allKeys},
	cmdIncr:    {name: "INCR", class: "incr", writes: true, keys: oneKey},
	cmdRPush:   {name: "RPUSH", class: "rpush", writes: true, keys: oneKey},
	cmdLLen:    {name: "LLEN", class: "llen", idempotent: true, keys: oneKey},
	cmdLRange:  {name: "LRANGE", class: "lrange", idempotent: true, keys: oneKey},
	cmdDBSize:  {name: "DBSIZE", class: "dbsize", idempotent: true},
	cmdInfo:    {name: "INFO", class: "info"},
	cmdCluster: {name: "CLUSTER", class: "other"},
}

// maxCmdNameLen bounds the fold buffer; the longest command name is
// CLUSTER (7 bytes).
const maxCmdNameLen = 16

// cmdsByLen indexes the table by name length; it is derived from the
// table once, so the table stays the only list of commands. No length
// has more than four commands, so a lookup is a few short compares.
var cmdsByLen = func() (byLen [maxCmdNameLen + 1][]cmdID) {
	for id := cmdNone + 1; id < numCmdIDs; id++ {
		n := len(cmdTable[id].name)
		byLen[n] = append(byLen[n], id)
	}
	return byLen
}()

// lookupCmd resolves a command name of any case — a client's string or
// the wire's bytes — to its cmdID without allocating: the name is
// case-folded into a stack buffer and compared with the table's names
// of the same length. Unknown names (and names longer than any known
// command) map to cmdNone.
func lookupCmd[T string | []byte](cmd T) cmdID {
	if len(cmd) > maxCmdNameLen {
		return cmdNone
	}
	var buf [maxCmdNameLen]byte
	for i := 0; i < len(cmd); i++ {
		c := cmd[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	for _, id := range cmdsByLen[len(cmd)] {
		// The first-byte test settles most candidates without a call.
		if name := cmdTable[id].name; name[0] == buf[0] && name == string(buf[:len(cmd)]) {
			return id
		}
	}
	return cmdNone
}
