package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"risc1"
)

// cacheKey identifies one compiled image by content: the hash covers the
// language, the target and the full source text, so two requests share an
// entry exactly when the compiler would produce the same image.
type cacheKey [sha256.Size]byte

func imageKey(lang string, target risc1.Target, source string) cacheKey {
	h := sha256.New()
	h.Write([]byte(lang))
	h.Write([]byte{0, byte(target), 0})
	h.Write([]byte(source))
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// imageCache is a concurrency-safe LRU of compiled images behind one mutex.
// Images are immutable (running one copies its bytes into a fresh machine),
// so a cached image can be handed to any number of concurrent runs. This is
// the serving layer's RISC move: the common case — compile-once, run-many
// benchmark traffic — skips the compiler entirely.
type imageCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element

	hits, misses uint64
}

type cacheEntry struct {
	key cacheKey
	img *risc1.Image
}

// newImageCache builds a cache holding up to max images; max <= 0 disables
// caching (every lookup misses).
func newImageCache(max int) *imageCache {
	return &imageCache{
		max:     max,
		order:   list.New(),
		entries: map[cacheKey]*list.Element{},
	}
}

// get returns the cached image for k, refreshing its recency.
func (c *imageCache) get(k cacheKey) (*risc1.Image, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).img, true
}

// add inserts an image, evicting the least recently used entry when the
// cache is full.
func (c *imageCache) add(k cacheKey, img *risc1.Image) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok { // raced with another compile of the same source
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).img = img
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, img: img})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// stats returns the hit/miss counters and current size.
func (c *imageCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
