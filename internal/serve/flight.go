package serve

import (
	"fmt"
	"sync"
)

// flight is a keyed singleflight cache for the state requests with the same
// spec share (job templates, ECO base placements): the first request for a
// key builds the value while every concurrent request for the same key
// waits on the entry's ready channel, so an expensive build happens exactly
// once per key no matter how many identical requests arrive together. Failed
// builds are evicted so a transient failure does not poison the key.
type flight[T any] struct {
	mu sync.Mutex
	m  map[string]*flightEntry[T]
}

type flightEntry[T any] struct {
	ready chan struct{} // closed when v/err are set
	v     T
	err   error
}

func (c *flight[T]) init() {
	c.m = make(map[string]*flightEntry[T])
}

// get returns the value for key, building it with build if this is the
// first request. hit reports whether the value already existed (or was
// being built by another request) — the caller's build ran only when hit is
// false and err may be non-nil.
func (c *flight[T]) get(key string, build func() (T, error)) (v T, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		c.mu.Unlock()
		<-e.ready
		return e.v, true, e.err
	}
	e = &flightEntry[T]{ready: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	e.v, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		// Evict only our own failed entry: a concurrent retry may already
		// have replaced it.
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.v, false, e.err
}

// Len reports the number of cached values (testing hook).
func (c *flight[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// protect calls a solver entry point with a per-request panic guard: a panic
// anywhere in the solver stack is confined to the request and comes back as
// its error with panicked set.
func protect[T any](run func() (T, error)) (res T, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			res, err, panicked = zero, fmt.Errorf("%v", r), true
		}
	}()
	res, err = run()
	return res, err, false
}
