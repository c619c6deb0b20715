package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/snap"
)

// Table 1 geometries: the L2 has 6144 sets (not a power of two), the L1
// 512 sets of two ways with way prediction.
var (
	l2Config = Config{Name: "l2", SizeBytes: 3 << 20, Ways: 8, BlockBytes: 64, HitLatency: 12}
	l1Config = Config{Name: "l1i", SizeBytes: 64 << 10, Ways: 2, BlockBytes: 64, WayPredict: true}
)

// drive issues n randomized lookups: mostly a hot working set that keeps
// promoting and evicting within sets, plus scattered cold blocks, some far
// above the set-index bits.
func drive(c *Cache, rng *rand.Rand, n int, now uint64) uint64 {
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(4) {
		case 0:
			addr = rng.Uint64()
		case 1:
			addr = uint64(rng.Intn(1 << 22))
		default:
			addr = uint64(rng.Intn(4096)) * 64 * 512
		}
		now += uint64(rng.Intn(3))
		c.Lookup(addr, now)
	}
	return now
}

func snapshotOf(c *Cache) []byte {
	s := snap.NewEncoder(nil)
	c.Snap(s)
	return s.Finish()
}

func restoreInto(c *Cache, data []byte) error {
	s, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	c.Snap(s)
	return s.Done()
}

// checkSets asserts what the sparse encoding rests on: every set holds at
// most ways lines, and its valid lines are distinct blocks that index to
// it.
func checkSets(t *testing.T, c *Cache) {
	t.Helper()
	for s := uint64(0); s < c.nsets; s++ {
		if int(c.count[s]) > c.ways {
			t.Fatalf("cache %s set %d counts %d lines of %d ways", c.name, s, c.count[s], c.ways)
		}
		set := c.set(s)
		for w, l := range set {
			if l.tag%c.nsets != s {
				t.Fatalf("cache %s set %d way %d holds block %#x of set %d", c.name, s, w, l.tag, l.tag%c.nsets)
			}
			for _, m := range set[:w] {
				if m.tag == l.tag {
					t.Fatalf("cache %s set %d holds block %#x twice", c.name, s, l.tag)
				}
			}
		}
	}
}

// TestCacheSparseSnapshot drives randomized traffic through both Table 1
// geometries, checking the set invariant and that Snapshot →
// Restore → Snapshot is byte-identical, into a fresh cache and into one
// that already holds other lines. The restored cache must then behave
// exactly like the original.
func TestCacheSparseSnapshot(t *testing.T) {
	for _, cfg := range []Config{l2Config, l1Config} {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			c := NewCache(cfg, flat(100))
			dirty := NewCache(cfg, flat(100))
			drive(dirty, rand.New(rand.NewSource(2)), 20000, 0)
			now := uint64(0)
			for round := 0; round < 4; round++ {
				now = drive(c, rng, 5000<<round, now)
				checkSets(t, c)
				data := snapshotOf(c)
				for _, dst := range []*Cache{NewCache(cfg, flat(100)), dirty} {
					if err := restoreInto(dst, data); err != nil {
						t.Fatal(err)
					}
					checkSets(t, dst)
					if again := snapshotOf(dst); !bytes.Equal(data, again) {
						t.Fatalf("round %d: re-snapshot differs (%d vs %d bytes)", round, len(data), len(again))
					}
				}
			}
			// The restored copy replays the same traffic identically.
			same := NewCache(cfg, flat(100))
			if err := restoreInto(same, snapshotOf(c)); err != nil {
				t.Fatal(err)
			}
			a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			drive(c, a, 5000, now)
			drive(same, b, 5000, now)
			if !bytes.Equal(snapshotOf(c), snapshotOf(same)) {
				t.Fatal("restored cache diverged from the original under identical traffic")
			}
		})
	}
}

// TestCacheRestoreRejectsBadSets: the decoder refuses set lists outside the
// canonical form.
func TestCacheRestoreRejectsBadSets(t *testing.T) {
	const nsets, ways = 6144, 8
	stream := func(entries ...uint64) []byte {
		s := snap.NewEncoder(nil)
		words := append([]uint64{nsets, ways}, entries...)
		words = append(words, 0, 0, 0) // hits, misses, way mispredicts
		for i := range words {
			s.U64(&words[i])
		}
		return s.Finish()
	}
	// Each live set: index, k, then k (tag, readyAt) pairs.
	cases := []struct {
		name string
		data []byte
	}{
		{"set index at nsets", stream(1, nsets, 1, 7, 0)},
		{"set index far out of range", stream(1, 1<<40, 1, 7, 0)},
		{"descending sets", stream(2, 9, 1, 7, 0, 3, 1, 7, 0)},
		{"repeated set", stream(2, 9, 1, 7, 0, 9, 1, 7, 0)},
		{"k zero", stream(1, 5, 0)},
		{"k above ways", stream(1, 5, ways+1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9)},
		{"live count beyond stream", stream(100, 5, 1, 7, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := restoreInto(NewCache(l2Config, flat(100)), tc.data); !errors.Is(err, snap.ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
	// The well-formed neighbour of those streams restores.
	good := stream(2, 3, 1, 7, 0, 9, 2, 8, 5, 1, 0)
	if err := restoreInto(NewCache(l2Config, flat(100)), good); err != nil {
		t.Fatalf("canonical stream rejected: %v", err)
	}
}
