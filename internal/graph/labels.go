// Package graph implements the simple labeled undirected graph model from
// Section II of Li et al., "An Efficient Probabilistic Approach for Graph
// Similarity Search" (ICDE 2018): vertex- and edge-labeled simple graphs, a
// shared label dictionary, a text codec, and the extended graphs of Section IV.
//
// Labels are interned: user-facing labels are strings, while every hot path
// works on dense int32 label IDs handed out by a Labels dictionary. ID 0 is
// reserved for the virtual label ε of Definition 5, which never belongs to
// the vertex-label alphabet LV or the edge-label alphabet LE.
package graph

import (
	"fmt"
	"sync"
)

// ID is an interned label identifier. The zero ID is the virtual label ε.
type ID = int32

// Epsilon is the interned ID of the virtual label ε from Section II of the
// paper. Virtual vertices and edges (Definition 5) carry this label; it is a
// member of neither LV nor LE.
const Epsilon ID = 0

// EpsilonName is the string form of the virtual label.
const EpsilonName = "ε"

// Labels interns label strings to dense int32 IDs shared by all graphs of a
// database, so that label equality is integer equality. It is safe for
// concurrent use; lookups after the build phase take only a read lock.
type Labels struct {
	mu   sync.RWMutex
	ids  map[string]ID
	strs []string
}

// NewLabels returns a dictionary containing only the virtual label ε.
func NewLabels() *Labels {
	return &Labels{
		ids:  map[string]ID{EpsilonName: Epsilon},
		strs: []string{EpsilonName},
	}
}

// Intern returns the ID for s, assigning a fresh one on first use.
// Interning the ε name returns Epsilon.
func (l *Labels) Intern(s string) ID {
	l.mu.RLock()
	id, ok := l.ids[s]
	l.mu.RUnlock()
	if ok {
		return id
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id, ok = l.ids[s]; ok {
		return id
	}
	id = ID(len(l.strs))
	l.ids[s] = id
	l.strs = append(l.strs, s)
	return id
}

// internBytes is Intern for a byte slice, which it copies only when the
// label is new.
func (l *Labels) internBytes(b []byte) ID {
	l.mu.RLock()
	id, ok := l.ids[string(b)]
	l.mu.RUnlock()
	if ok {
		return id
	}
	return l.Intern(string(b))
}

// LabelView reads a dictionary held read-locked by Labels.View.
type LabelView struct{ l *Labels }

// Lookup is Labels.Lookup without taking the lock.
func (v LabelView) Lookup(s string) (ID, bool) {
	id, ok := v.l.ids[s]
	return id, ok
}

// Name is Labels.Name without taking the lock.
func (v LabelView) Name(id ID) string {
	if id < 0 || int(id) >= len(v.l.strs) {
		panic(fmt.Sprintf("graph: label ID %d out of range [0,%d)", id, len(v.l.strs)))
	}
	return v.l.strs[id]
}

// View calls fn with the dictionary read-locked, so every lookup fn makes
// through v shares one lock round trip: a whole graph's labels resolve
// under one lock. fn must not call l's own methods.
func (l *Labels) View(fn func(v LabelView)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(LabelView{l})
}

// Lookup returns the ID for s without interning. The second result reports
// whether s is known.
func (l *Labels) Lookup(s string) (ID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	id, ok := l.ids[s]
	return id, ok
}

// Name returns the string for id. It panics if id was never interned,
// because that always indicates a programming error, not bad input.
func (l *Labels) Name(id ID) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return LabelView{l}.Name(id)
}

// Len reports the number of interned labels, including ε.
func (l *Labels) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.strs)
}
