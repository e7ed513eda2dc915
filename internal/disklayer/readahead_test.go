package disklayer

import (
	"testing"

	"springfs/internal/naming"
	"springfs/internal/vm"
)

// Regression: the adaptive read-ahead stream detector must not chase a
// stream past a truncate-shrink. Before the fix, a file that grew (building
// a wide speculative window) and was then truncated left the pager's stream
// state pointing at ranges beyond the new EOF: the next hinted fault both
// charged the stale speculation to disk.readahead.wasted and kept granting
// windows past the inode's current length.
func TestReadAheadResetsOnTruncateShrink(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("stream", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 32
	if _, err := f.WriteAt(make([]byte, blocks*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	pager := &diskPager{file: f.(*diskFile)}

	// Stream sequentially through half the file so the detector widens its
	// window and has speculation outstanding.
	off := vm.Offset(0)
	for off < 16*BlockSize {
		data, err := pager.PageInHint(off, BlockSize, 8*BlockSize, vm.RightsRead)
		if err != nil {
			t.Fatalf("PageInHint(%d): %v", off, err)
		}
		off += int64(len(data))
	}
	if pager.raWindow == 0 {
		t.Fatal("sequential stream not detected")
	}
	wasted0 := raWasted.Value()

	// Shrink the file out from under the detector.
	const newLen = 4 * BlockSize
	if err := f.SetLength(newLen); err != nil {
		t.Fatal(err)
	}

	// Every grant after the shrink must stay inside the new EOF, and the
	// speculation that was in flight when the file shrank must not be
	// charged to the wasted counter — it is neither a hit nor waste.
	off = 0
	for off < newLen {
		data, err := pager.PageInHint(off, BlockSize, 8*BlockSize, vm.RightsRead)
		if err != nil {
			t.Fatalf("PageInHint(%d) after shrink: %v", off, err)
		}
		if off+int64(len(data)) > newLen {
			t.Fatalf("grant [%d, %d) extends past the truncated EOF %d",
				off, off+int64(len(data)), int64(newLen))
		}
		off += int64(len(data))
	}

	// A fault at or beyond the new EOF (a shrink racing the fault) gets
	// exactly the minimum, with no speculation recorded.
	data, err := pager.PageInHint(8*BlockSize, BlockSize, 8*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatalf("PageInHint past EOF: %v", err)
	}
	if int64(len(data)) != BlockSize {
		t.Errorf("past-EOF grant = %d bytes, want the %d minimum", len(data), int64(BlockSize))
	}
	if pager.raPending != 0 {
		t.Errorf("past-EOF fault left %d speculative pages pending", pager.raPending)
	}

	if d := raWasted.Value() - wasted0; d != 0 {
		t.Errorf("truncate-shrink charged %d pages to disk.readahead.wasted", d)
	}
}

// The SetAttributes shrink path (upper layers truncating through the pager
// protocol) must reset the stream detector just like file.SetLength.
func TestReadAheadResetsOnPagerShrink(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("attr-shrink", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	pager := &diskPager{file: f.(*diskFile)}
	off := vm.Offset(0)
	for off < 8*BlockSize {
		data, err := pager.PageInHint(off, BlockSize, 8*BlockSize, vm.RightsRead)
		if err != nil {
			t.Fatal(err)
		}
		off += int64(len(data))
	}
	wasted0 := raWasted.Value()

	attrs, err := pager.GetAttributes()
	if err != nil {
		t.Fatal(err)
	}
	attrs.Length = 2 * BlockSize
	if err := pager.SetAttributes(attrs); err != nil {
		t.Fatal(err)
	}

	data, err := pager.PageInHint(0, BlockSize, 8*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) > 2*BlockSize {
		t.Errorf("grant of %d bytes extends past the truncated EOF", len(data))
	}
	if d := raWasted.Value() - wasted0; d != 0 {
		t.Errorf("pager-path shrink charged %d pages to disk.readahead.wasted", d)
	}
}

// One sequential writer's new file is laid out contiguously (at least 80 %
// of its allocations land on the block after the previous one), and a cold
// sequential read of it engages the stream detector without a single
// speculative page going unused.
func TestSequentialStreamIsContiguousAndWastesNoReadAhead(t *testing.T) {
	r := newRig(t, 4096)
	const blocks = 1024
	f, err := r.fs.Create("stream", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	total0, contig0 := allocTotal.Value(), allocContig.Value()
	if _, err := f.WriteAt(make([]byte, blocks*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	total, contig := allocTotal.Value()-total0, allocContig.Value()-contig0
	if total < blocks || contig*10 < total*8 {
		t.Errorf("%d of %d allocations contiguous, want >= 80%% of at least %d", contig, total, blocks)
	}

	if err := r.vmm.DropCaches(); err != nil {
		t.Fatal(err)
	}
	hits0, wasted0 := raHits.Value(), raWasted.Value()
	buf := make([]byte, BlockSize)
	for bn := int64(0); bn < blocks; bn++ {
		if _, err := f.ReadAt(buf, bn*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if hits := raHits.Value() - hits0; hits == 0 {
		t.Error("the stream detector never engaged on a cold sequential read")
	}
	if wasted := raWasted.Value() - wasted0; wasted != 0 {
		t.Errorf("a clean sequential read charged %d pages to disk.readahead.wasted", wasted)
	}
}
