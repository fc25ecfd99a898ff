// Package guardedby is the golden fixture for the guardedby rule:
// annotated fields accessed with and without their mutex held,
// branch-aware early-exit unlocking, the *Locked helper convention,
// closures as fresh scopes, package-level guarded vars, and a
// misspelled annotation. Lines without a want comment pin the
// sanctioned idioms.
package guardedby

import "sync"

// Box mirrors the engine/queue shape: one mutex, several fields it
// guards, one field it does not.
type Box struct {
	mu    sync.Mutex
	count int // guarded by mu
	last  int // guarded by mu
	name  string
	bad   int // guarded by lock // want "Box.lock does not exist"
}

// Good is the canonical access shape: lock, defer unlock, touch.
func (b *Box) Good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Toggle unlocks and then keeps mutating — the classic stale-critical-
// section bug.
func (b *Box) Toggle() {
	b.mu.Lock()
	b.count++
	b.mu.Unlock()
	b.last = 7 // want "Box.last is accessed without holding mu"
}

// Branchy replays engine.Do's early-exit shape: the unlocking arm
// returns, so the fall-through path still holds the lock and its
// accesses are legal.
func (b *Box) Branchy(stop bool) {
	b.mu.Lock()
	if stop {
		b.mu.Unlock()
		return
	}
	b.count--
	b.mu.Unlock()
}

// BranchyLeak unlocks in a non-terminating arm: after the if, the lock
// is only maybe-held, which counts as not held.
func (b *Box) BranchyLeak(flip bool) {
	b.mu.Lock()
	if flip {
		b.mu.Unlock()
	}
	b.count++ // want "Box.count is accessed without holding mu"
	if !flip {
		b.mu.Unlock()
	}
}

// Bare reads without any locking at all.
func (b *Box) Bare() int {
	return b.count // want "Box.count is accessed without holding mu"
}

// addLocked follows the *Locked convention: the caller holds mu, so
// the body is exempt.
func (b *Box) addLocked(n int) {
	b.count += n
	b.last = b.count
}

// ViaHelper drives the helper under the lock — the sanctioned split.
func (b *Box) ViaHelper() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addLocked(1)
}

// Name touches only the unannotated field: no locking required.
func (b *Box) Name() string { return b.name }

// Escape returns a closure: the closure may run on any goroutine
// later, so it starts with nothing held even though the method locked.
func (b *Box) Escape() func() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() int {
		return b.count // want "Box.count is accessed without holding mu"
	}
}

// EscapeLocking is the fixed version: the closure locks for itself.
func (b *Box) EscapeLocking() func() int {
	return func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.count
	}
}

var regMu sync.Mutex

var registry = map[string]int{} // guarded by regMu

// Register drives the package-level pair correctly, then slips.
func Register(k string) {
	regMu.Lock()
	registry[k] = 1
	regMu.Unlock()
	delete(registry, k) // want "registry is accessed without holding regMu"
}
