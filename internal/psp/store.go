package psp

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// Store abstracts where the PSP keeps uploaded records. Two implementations
// exist: MemStore (this file, ephemeral) and blobstore.Store (crash-safe on
// disk); both are structural matches for this interface so the server never
// imports the storage package.
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

// Idempotency-index bounds for MemStore. A long-running server must not
// grow the key index without limit: entries are evicted least-recently-used
// beyond MaxKeys and lazily expired after KeyTTL. An evicted or expired key
// falls back to normal upload semantics — the retry stores a fresh copy
// under a new ID, which wastes a little space but never loses data.
const (
	DefaultMaxKeys = 1 << 16
	DefaultKeyTTL  = 24 * time.Hour
)

// MemStore is the ephemeral in-memory Store (the original map-based PSP
// storage). It is safe for concurrent use.
type MemStore struct {
	mu      sync.Mutex
	entries map[string]*entry
	keys    *keyIndex
}

// NewMemStore returns an empty store with default idempotency bounds.
func NewMemStore() *MemStore {
	return NewMemStoreBounded(DefaultMaxKeys, DefaultKeyTTL, nil)
}

// NewMemStoreBounded configures the idempotency-index cap and TTL. maxKeys
// <= 0 disables the index; ttl <= 0 disables expiry; now is stubbed in
// tests (nil means time.Now).
func NewMemStoreBounded(maxKeys int, ttl time.Duration, now func() time.Time) *MemStore {
	return &MemStore{
		entries: make(map[string]*entry),
		keys:    newKeyIndex(maxKeys, ttl, now),
	}
}

// Put implements Store.
func (m *MemStore) Put(id string, jpeg, params []byte, key string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key != "" {
		if prev, ok := m.keys.get(key); ok {
			return prev, nil
		}
	}
	if _, ok := m.entries[id]; ok {
		return "", fmt.Errorf("psp: id %q already stored", id)
	}
	m.entries[id] = &entry{jpeg: jpeg, params: params}
	if key != "" {
		m.keys.put(key, id)
	}
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
	return m.keys.get(key)
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
	return m.keys.len()
}

// keyIndex is a TTL + LRU bounded string map. Callers provide locking.
type keyIndex struct {
	maxKeys int
	ttl     time.Duration
	now     func() time.Time

	byKey map[string]*list.Element
	order *list.List // front = most recently used
}

type keyEntry struct {
	key, id string
	stamp   time.Time
}

func newKeyIndex(maxKeys int, ttl time.Duration, now func() time.Time) *keyIndex {
	if now == nil {
		now = time.Now
	}
	return &keyIndex{
		maxKeys: maxKeys,
		ttl:     ttl,
		now:     now,
		byKey:   make(map[string]*list.Element),
		order:   list.New(),
	}
}

func (k *keyIndex) get(key string) (string, bool) {
	el, ok := k.byKey[key]
	if !ok {
		return "", false
	}
	ke := el.Value.(*keyEntry)
	if k.ttl > 0 && k.now().Sub(ke.stamp) > k.ttl {
		k.order.Remove(el)
		delete(k.byKey, key)
		return "", false
	}
	k.order.MoveToFront(el)
	return ke.id, true
}

func (k *keyIndex) put(key, id string) {
	if k.maxKeys <= 0 {
		return
	}
	if el, ok := k.byKey[key]; ok {
		el.Value.(*keyEntry).id = id
		el.Value.(*keyEntry).stamp = k.now()
		k.order.MoveToFront(el)
		return
	}
	k.byKey[key] = k.order.PushFront(&keyEntry{key: key, id: id, stamp: k.now()})
	for len(k.byKey) > k.maxKeys {
		oldest := k.order.Back()
		if oldest == nil {
			break
		}
		k.order.Remove(oldest)
		delete(k.byKey, oldest.Value.(*keyEntry).key)
	}
}

func (k *keyIndex) len() int { return len(k.byKey) }
