package psp

import (
	"fmt"
	"sync"

	"puppies/internal/blobstore"
)

// Store abstracts where the PSP keeps uploaded records. Two implementations
// exist: MemStore (this file, ephemeral) and blobstore.Store (crash-safe on
// disk); both are structural matches for this interface, and both keep
// their idempotency keys in a blobstore.KeyIndex.
//
// Contract: Put either persists (id, jpeg, params) and returns id, or — when
// key is non-empty and already assigned — returns the original id without
// storing a duplicate. Put refuses an id that is already stored with an
// error and never overwrites it. Put must be atomic with respect to the key
// index and the id set, so concurrent retries of one upload cannot both
// store and concurrent writers of one id cannot both succeed. Byte slices
// returned by Get alias store-internal buffers and must not be mutated.
type Store interface {
	Put(id string, jpeg, params []byte, key string) (string, error)
	Get(id string) (jpeg, params []byte, ok bool, err error)
	IDForKey(key string) (string, bool)
	IDs() []string
	Len() int
}

// DefaultMaxKeys caps MemStore's idempotency-key index, as it caps the
// blob store's. Beyond the cap the oldest key is evicted.
const DefaultMaxKeys = blobstore.DefaultMaxKeys

// MemStore is the ephemeral in-memory Store (the original map-based PSP
// storage). It is safe for concurrent use.
type MemStore struct {
	mu      sync.Mutex
	entries map[string]*entry
	keys    blobstore.KeyIndex
}

// NewMemStore returns an empty store with the default key-index cap.
func NewMemStore() *MemStore {
	return NewMemStoreBounded(DefaultMaxKeys)
}

// NewMemStoreBounded caps the idempotency-key index at maxKeys; maxKeys <= 0
// disables it.
func NewMemStoreBounded(maxKeys int) *MemStore {
	return &MemStore{
		entries: make(map[string]*entry),
		keys:    blobstore.NewKeyIndex(maxKeys),
	}
}

// Put implements Store.
func (m *MemStore) Put(id string, jpeg, params []byte, key string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.keys.Get(key); ok {
		return prev, nil
	}
	if _, ok := m.entries[id]; ok {
		return "", fmt.Errorf("psp: id %q already stored", id)
	}
	m.entries[id] = &entry{jpeg: jpeg, params: params}
	m.keys.Add(key, id)
	return id, nil
}

// Get implements Store.
func (m *MemStore) Get(id string) (jpeg, params []byte, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return nil, nil, false, nil
	}
	return e.jpeg, e.params, true, nil
}

// IDForKey implements Store.
func (m *MemStore) IDForKey(key string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys.Get(key)
}

// IDs implements Store.
func (m *MemStore) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for id := range m.entries {
		out = append(out, id)
	}
	return out
}

// Len implements Store.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// KeyCount reports the live idempotency-index size (tests).
func (m *MemStore) KeyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keys.Len()
}
