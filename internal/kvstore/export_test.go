package kvstore

import "bytes"

// Do executes one command against the engine and returns its reply,
// whose bytes the caller owns. Command names are case-insensitive, as
// in Redis; the lookup folds case without allocating, so a lowercase
// client costs nothing extra.
func (e *Engine) Do(cmd string, args ...[]byte) Reply {
	return cloneReply(e.doID(lookupCmd(cmd), cmd, args))
}

// cloneReply copies the bulk bytes of r, which may alias stored
// values. An array reply's element slice is built per call.
func cloneReply(r Reply) Reply {
	r.Bulk = bytes.Clone(r.Bulk)
	for i := range r.Array {
		r.Array[i].Bulk = bytes.Clone(r.Array[i].Bulk)
	}
	return r
}
