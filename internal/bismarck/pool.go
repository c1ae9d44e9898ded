package bismarck

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"sync"
)

// PoolStats counts buffer-pool traffic. Reads is the number of pages
// fetched from the backing file (the I/O cost that dominates the
// disk-based scalability runs of Figure 2(b)).
type PoolStats struct {
	Hits   int
	Misses int
	Reads  int
}

// bufferPool is a fixed-capacity LRU cache of read-only pages backed by
// a file. It is the minimal analogue of PostgreSQL's shared buffers:
// when every page fits, scans are CPU-bound ("in-memory"); when the
// table exceeds the capacity, scans pay real file I/O ("disk-based").
//
// The pool is safe for concurrent readers (shared-nothing parallel
// training scans segments of one table from several goroutines). Pages
// are immutable once read, so an evicted page's buffer stays valid for
// any caller still holding it.
type bufferPool struct {
	mu       sync.Mutex
	file     *os.File
	capacity int
	pages    map[int]*list.Element
	lru      *list.List // front = most recent
	stats    PoolStats
}

type poolEntry struct {
	id   int
	data []byte
}

func newBufferPool(file *os.File, capacity int) *bufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &bufferPool{
		file:     file,
		capacity: capacity,
		pages:    make(map[int]*list.Element),
		lru:      list.New(),
	}
}

// get returns page id, reading it from the file on a miss and evicting
// the least recently used page when the pool is full.
func (p *bufferPool) get(id int) ([]byte, error) {
	p.mu.Lock()
	if el, ok := p.pages[id]; ok {
		p.stats.Hits++
		p.lru.MoveToFront(el)
		data := el.Value.(*poolEntry).data
		p.mu.Unlock()
		return data, nil
	}
	p.stats.Misses++
	p.mu.Unlock()

	// Read outside the lock: concurrent misses may read the same page
	// twice, which only affects the stats, never correctness.
	buf := make([]byte, PageSize)
	if _, err := p.file.ReadAt(buf, int64(id)*PageSize); err != nil && err != io.EOF {
		return nil, fmt.Errorf("bismarck: read page %d: %w", id, err)
	}

	p.mu.Lock()
	p.stats.Reads++
	if el, ok := p.pages[id]; ok {
		// Lost the race; keep the copy that is already cached.
		data := el.Value.(*poolEntry).data
		p.mu.Unlock()
		return data, nil
	}
	if p.lru.Len() >= p.capacity {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		delete(p.pages, oldest.Value.(*poolEntry).id)
	}
	p.pages[id] = p.lru.PushFront(&poolEntry{id: id, data: buf})
	p.mu.Unlock()
	return buf, nil
}

// snapshotStats returns a copy of the counters.
func (p *bufferPool) snapshotStats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
