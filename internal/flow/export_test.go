package flow

import (
	"encoding/binary"
	"hash/fnv"
)

// Test-only hooks for the external flow_test package.

// AllocNet exposes the allocation-gate ladder network.
var AllocNet = allocNet

// Lower exposes the dual transshipment network of a difference LP.
func (l *DiffLP) Lower() (*Network, error) {
	nw, _, err := l.lower()
	return nw, err
}

// Fingerprint is an FNV-64a hash of the program as the solver sees it:
// the variable count, the anchor, the ordered constraint list and the
// objective coefficients. Constraint order fixes the dual network's arc
// order and hence the pivot path, so it is part of the hash.
func (l *DiffLP) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(l.n))
	put(int64(l.anchor))
	for _, c := range l.cons {
		put(int64(c.u))
		put(int64(c.v))
		put(c.c)
	}
	for _, o := range l.obj {
		put(o)
	}
	return h.Sum64()
}
