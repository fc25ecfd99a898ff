package flow

// Test-only hooks for the external flow_test package.

// AllocNet exposes the allocation-gate ladder network.
var AllocNet = allocNet

// Lower exposes the dual transshipment network of a difference LP.
func (l *DiffLP) Lower() (*Network, error) {
	nw, _, err := l.lower()
	return nw, err
}
