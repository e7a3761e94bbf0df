package serve

import (
	"fmt"
	"sync"
	"testing"

	"risc1"
)

func mustImage(t testing.TB, src string) *risc1.Image {
	t.Helper()
	img, err := risc1.CompileToImage(src, risc1.RISCWindowed)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestImageCacheLRU pins eviction order: the least recently used entry goes
// first, and a get refreshes recency.
func TestImageCacheLRU(t *testing.T) {
	c := newImageCache(2)
	imgA := mustImage(t, "int main() { putint(1); return 0; }")
	kA := imageKey("cm", risc1.RISCWindowed, "a")
	kB := imageKey("cm", risc1.RISCWindowed, "b")
	kC := imageKey("cm", risc1.RISCWindowed, "c")

	c.add(kA, imgA)
	c.add(kB, imgA)
	if _, ok := c.get(kA); !ok { // refresh A; B is now the LRU
		t.Fatal("A missing")
	}
	c.add(kC, imgA) // evicts B
	if _, ok := c.get(kB); ok {
		t.Error("B survived eviction")
	}
	if _, ok := c.get(kA); !ok {
		t.Error("A was evicted despite being refreshed")
	}
	if _, ok := c.get(kC); !ok {
		t.Error("C missing")
	}
	hits, misses, size := c.stats()
	if size != 2 {
		t.Errorf("size = %d, want 2", size)
	}
	if hits != 3 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
}

// TestImageCacheDisabled checks max <= 0 never stores.
func TestImageCacheDisabled(t *testing.T) {
	c := newImageCache(0)
	k := imageKey("cm", risc1.RISCWindowed, "x")
	c.add(k, mustImage(t, "int main() { return 0; }"))
	if _, ok := c.get(k); ok {
		t.Error("disabled cache returned an entry")
	}
}

// TestImageCacheKeyDisambiguates checks lang, target and source all feed
// the key: same source on two targets must not collide.
func TestImageCacheKeyDisambiguates(t *testing.T) {
	keys := map[cacheKey]string{}
	for _, lang := range []string{"cm", "asm"} {
		for _, target := range []risc1.Target{risc1.RISCWindowed, risc1.RISCFlat, risc1.CISC} {
			for _, src := range []string{"a", "b"} {
				k := imageKey(lang, target, src)
				name := fmt.Sprintf("%s/%v/%s", lang, target, src)
				if prev, dup := keys[k]; dup {
					t.Fatalf("key collision: %s and %s", prev, name)
				}
				keys[k] = name
			}
		}
	}
}

// TestImageCacheConcurrent hammers one small cache from many goroutines;
// meaningful under -race.
func TestImageCacheConcurrent(t *testing.T) {
	c := newImageCache(3)
	img := mustImage(t, "int main() { return 0; }")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := imageKey("cm", risc1.RISCWindowed, fmt.Sprint((g+i)%7))
				if _, ok := c.get(k); !ok {
					c.add(k, img)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, size := c.stats(); size > 3 {
		t.Errorf("cache grew past max: %d", size)
	}
}
