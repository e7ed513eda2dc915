package vm

import (
	"bytes"
	"testing"
)

// denyWritesRig maps a pager, dirties `pages` whole pages (page pn filled
// with byte pn) and returns the cache.
func denyWritesRig(t *testing.T, pages int) *FileCache {
	t.Helper()
	rig := newRig(t)
	m, err := rig.vmm.Map(newMemPager(rig.pagerDomain), RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*PageSize)
	for pn := 0; pn < pages; pn += 64 {
		for i := range buf {
			buf[i] = byte(pn + i/PageSize)
		}
		if _, err := m.WriteAt(buf, int64(pn)*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Cache().PageCount(); got != pages {
		t.Fatalf("cache holds %d pages, want %d", got, pages)
	}
	return m.Cache()
}

// TestDenyWritesOfOnePageCostsTheRange: a range op walks the range when that
// is shorter than the page map, so a one-page deny_writes on a 2048-page
// cache looks at one page, not at 2048 three times over; a range longer than
// the map ("the whole file") still walks the sparse map, never the range.
func TestDenyWritesOfOnePageCostsTheRange(t *testing.T) {
	const pages = 2048
	fc := denyWritesRig(t, pages)

	walk := func(first, last int64) (visited int, ascending bool) {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		ascending = fc.inRange(first, last, func(pn int64, _ *page) {
			if pn < first || pn > last {
				t.Errorf("visited page %d outside [%d, %d]", pn, first, last)
			}
			visited++
		})
		return visited, ascending
	}
	// An ascending visit is the range walk: its cost is the range's length.
	if n, ranged := walk(100, 100); n != 1 || !ranged {
		t.Errorf("one-page range: visited %d pages, range walk = %v; want 1, true", n, ranged)
	}
	if n, ranged := walk(pages-3, pages+60); n != 3 || !ranged {
		t.Errorf("64-page range over the tail: visited %d pages, range walk = %v; want 3, true", n, ranged)
	}
	if n, ranged := walk(0, maxPageNumber); n != pages || ranged {
		t.Errorf("whole-file range: visited %d pages, range walk = %v; want %d, false", n, ranged, pages)
	}

	cache := (*vmmCacheObject)(fc)
	out := cache.DenyWrites(100*PageSize, PageSize)
	if len(out) != 1 || out[0].Offset != 100*PageSize || !bytes.Equal(out[0].Bytes, bytes.Repeat([]byte{100}, PageSize)) {
		t.Fatalf("one-page DenyWrites returned %d extents", len(out))
	}
	for _, pn := range []int64{99, 100, 101} {
		want := RightsWrite
		if pn == 100 {
			want = RightsRead
		}
		if r, ok := fc.PageRights(pn); !ok || r != want {
			t.Errorf("page %d: rights %v (present=%v), want %v", pn, r, ok, want)
		}
	}
}

// TestRangedOpsOverTheWholeFile: the four range ops over "the whole file"
// (2^62 bytes, as DFS's DestroyCache forwards it) settle every page and
// return the modified ones as coalesced extents in file order.
func TestRangedOpsOverTheWholeFile(t *testing.T) {
	const pages = 192
	whole := Offset(1) << 62
	check := func(t *testing.T, out []Data) {
		t.Helper()
		var got []byte
		for i, d := range out {
			if i > 0 && d.Offset <= out[i-1].Offset {
				t.Errorf("extent %d at %d is not after extent %d at %d", i, d.Offset, i-1, out[i-1].Offset)
			}
			got = append(got, d.Bytes...)
		}
		if len(out) != 1 || len(got) != pages*PageSize {
			t.Fatalf("%d extents, %d bytes; want 1 extent of %d", len(out), len(got), pages*PageSize)
		}
		for pn := 0; pn < pages; pn++ {
			if got[pn*PageSize] != byte(pn) {
				t.Fatalf("page %d returned as %#x", pn, got[pn*PageSize])
			}
		}
	}
	t.Run("WriteBack", func(t *testing.T) {
		fc := denyWritesRig(t, pages)
		check(t, (*vmmCacheObject)(fc).WriteBack(0, whole))
		if r, _ := fc.PageRights(pages - 1); r != RightsWrite || fc.PageCount() != pages {
			t.Errorf("after WriteBack: rights %v, %d pages; want write, %d", r, fc.PageCount(), pages)
		}
		if out := (*vmmCacheObject)(fc).WriteBack(0, whole); len(out) != 0 {
			t.Errorf("second WriteBack returned %d extents; the pages are clean", len(out))
		}
	})
	t.Run("DenyWrites", func(t *testing.T) {
		fc := denyWritesRig(t, pages)
		check(t, (*vmmCacheObject)(fc).DenyWrites(0, whole))
		for pn := int64(0); pn < pages; pn++ {
			if r, ok := fc.PageRights(pn); !ok || r != RightsRead {
				t.Fatalf("page %d: rights %v (present=%v), want read-only", pn, r, ok)
			}
		}
	})
	t.Run("FlushBack", func(t *testing.T) {
		fc := denyWritesRig(t, pages)
		check(t, (*vmmCacheObject)(fc).FlushBack(0, whole))
		if fc.PageCount() != 0 {
			t.Errorf("%d pages left after FlushBack", fc.PageCount())
		}
	})
	t.Run("DeleteRange", func(t *testing.T) {
		fc := denyWritesRig(t, pages)
		(*vmmCacheObject)(fc).DeleteRange(0, whole)
		if fc.PageCount() != 0 {
			t.Errorf("%d pages left after DeleteRange", fc.PageCount())
		}
	})
}
