package fsys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
)

var errTestBad = errors.New("not a test image")

// opFile is a memFile that logs the writes, syncs and truncations the
// image issues.
type opFile struct {
	*memFile
	ops []string
}

func (f *opFile) WriteAt(p []byte, off int64) (int, error) {
	f.ops = append(f.ops, fmt.Sprintf("write@%d", off))
	return f.memFile.WriteAt(p, off)
}

func (f *opFile) Sync() error {
	f.ops = append(f.ops, "sync")
	return nil
}

func (f *opFile) SetLength(l int64) error {
	f.ops = append(f.ops, fmt.Sprintf("cut@%d", l))
	return f.memFile.SetLength(l)
}

// extentTable is the test layer's table: the live extents, 16 bytes each.
func extentTable(live ...Extent) []byte {
	out := make([]byte, 0, 16*len(live))
	for _, e := range live {
		out = binary.BigEndian.AppendUint64(out, uint64(e.Off))
		out = binary.BigEndian.AppendUint64(out, uint64(e.Len))
	}
	return out
}

func decodeExtentTable(raw []byte) ([]Extent, []Extent, error) {
	var live []Extent
	for ; len(raw) >= 16; raw = raw[16:] {
		live = append(live, Extent{int64(binary.BigEndian.Uint64(raw)), int64(binary.BigEndian.Uint64(raw[8:]))})
	}
	return live, live, nil
}

func newTestImage(t *testing.T, f File, align int64) *Image {
	t.Helper()
	im := &Image{Lower: f, Magic: 0x7465737400000001, Version: 3, Align: align, Bad: errTestBad}
	if _, err := LoadImage(im, decodeExtentTable); err != nil {
		t.Fatal(err)
	}
	return im
}

// TestImageCommitOrder: the table goes to free space and is synced before
// the header names it, and the header is synced before anything the commit
// dropped can be allocated again.
func TestImageCommitOrder(t *testing.T) {
	f := &opFile{memFile: &memFile{}}
	im := newTestImage(t, f, 1)
	a := im.Alloc(100)
	if a != ImageHeaderSize {
		t.Fatalf("first extent at %d, want %d", a, ImageHeaderSize)
	}
	if err := im.Commit(extentTable(Extent{a, 100})); err != nil {
		t.Fatal(err)
	}
	want := []string{"write@4196", "sync", "write@0", "sync"}
	if !slices.Equal(f.ops, want) {
		t.Fatalf("commit issued %v, want %v", f.ops, want)
	}

	// Freeing a must not make it allocatable before the next commit is
	// durable, nor may the committed table's extent be.
	im.Free(a, 100)
	b := im.Alloc(100)
	if b == a || b == 4196 {
		t.Fatalf("extent %d reused before the commit that drops it", b)
	}
	if err := im.Commit(extentTable(Extent{b, 100})); err != nil {
		t.Fatal(err)
	}
	if c := im.Alloc(100); c != a {
		t.Errorf("after the commit that dropped it, extent %d was not reused (got %d)", a, c)
	}
}

// TestImageReusesAfterCommit: once the commit that dropped them is durable,
// the old table's extent and the freed ones are allocated first fit, and
// the lower file stops growing.
func TestImageReusesAfterCommit(t *testing.T) {
	f := &memFile{}
	im := newTestImage(t, f, BlockSize)
	var live []Extent
	for range 8 {
		live = append(live, Extent{im.Alloc(BlockSize), BlockSize})
	}
	if err := im.Commit(extentTable(live...)); err != nil {
		t.Fatal(err)
	}
	size, _ := f.GetLength()
	for round := range 20 {
		// Rewrite two blocks out of place, then commit.
		for _, i := range []int{round % 8, (round + 3) % 8} {
			im.Free(live[i].Off, BlockSize)
			live[i].Off = im.Alloc(BlockSize)
		}
		if err := im.Commit(extentTable(live...)); err != nil {
			t.Fatal(err)
		}
		if got, _ := f.GetLength(); got > size+3*BlockSize {
			t.Fatalf("round %d: image grew from %d to %d bytes", round, size, got)
		}
	}
	// What is left must load back: no extent outside, none shared.
	newTestImage(t, f, BlockSize)
}

// TestImageCutsFreeTail: a commit that leaves more free bytes than live
// ones gives the free tail back to the lower file. The commit that drops
// the extents writes its table past them (they are not free yet), so the
// tail comes back one commit later.
func TestImageCutsFreeTail(t *testing.T) {
	f := &memFile{}
	im := newTestImage(t, f, BlockSize)
	var live []Extent
	for range 16 {
		live = append(live, Extent{im.Alloc(BlockSize), BlockSize})
	}
	if err := im.Commit(extentTable(live...)); err != nil {
		t.Fatal(err)
	}
	for _, e := range live[2:] {
		im.Free(e.Off, e.Len)
	}
	for range 2 {
		if err := im.Commit(extentTable(live[:2]...)); err != nil {
			t.Fatal(err)
		}
	}
	// Header, two blocks, the new table in the first free page.
	if got, _ := f.GetLength(); got != 4*BlockSize {
		t.Errorf("lower file is %d bytes after dropping 14 of 16 blocks, want %d", got, 4*BlockSize)
	}
}

// TestImageLoadRefusesBadImages: a header of another magic or version, a
// table or extent outside the image, misaligned, or overlapping another
// is the layer's bad-image error — and a table length from disk never
// sizes an allocation past the lower file.
func TestImageLoadRefusesBadImages(t *testing.T) {
	header := func(magic uint64, version uint32, off, n int64) []byte {
		h := make([]byte, ImageHeaderSize)
		binary.BigEndian.PutUint64(h, magic)
		binary.BigEndian.PutUint32(h[8:], version)
		binary.BigEndian.PutUint64(h[12:], uint64(off))
		binary.BigEndian.PutUint64(h[20:], uint64(n))
		return h
	}
	const magic, version = 0x7465737400000001, 3
	const tableAt = 4 * BlockSize
	image := func(hdr []byte, table ...Extent) []byte {
		out := make([]byte, 5*BlockSize)
		copy(out, hdr)
		copy(out[tableAt:], extentTable(table...))
		return out
	}
	for what, raw := range map[string][]byte{
		"other magic":     image(header(magic+1, version, tableAt, 32), Extent{BlockSize, 10}, Extent{2 * BlockSize, 10}),
		"old version":     image(header(magic, version-1, tableAt, 32), Extent{BlockSize, 10}, Extent{2 * BlockSize, 10}),
		"huge table":      image(header(magic, version, tableAt, 1<<62), Extent{BlockSize, 10}),
		"negative table":  image(header(magic, version, tableAt, -1), Extent{BlockSize, 10}),
		"table in header": image(header(magic, version, 16, 32), Extent{BlockSize, 10}),
		"past the end":    image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{5 * BlockSize, 10}),
		"negative extent": image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{-BlockSize, 10}),
		"overlap":         image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{BlockSize + 4, 10}),
		"shared":          image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{BlockSize, 10}),
		"over the table":  image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{tableAt - 4, 10}),
		"misaligned":      image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{2*BlockSize + 1, 10}),
		"empty extent":    image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{2 * BlockSize, 0}),
		"short header":    []byte("not an image"),
	} {
		im := &Image{Lower: &memFile{data: raw}, Magic: magic, Version: version, Align: 2, Bad: errTestBad}
		if _, err := LoadImage(im, decodeExtentTable); err != errTestBad {
			t.Errorf("%s: load = %v, want the bad-image error", what, err)
		}
	}
	// The same shape, well formed, loads — and so do a zero-length file
	// and one whose header page was never written.
	for what, raw := range map[string][]byte{
		"good":       image(header(magic, version, tableAt, 32), Extent{BlockSize, 10}, Extent{2 * BlockSize, 10}),
		"empty":      nil,
		"no header":  make([]byte, 3*BlockSize),
		"header gap": make([]byte, 10),
	} {
		im := &Image{Lower: &memFile{data: raw}, Magic: magic, Version: version, Align: 2, Bad: errTestBad}
		if _, err := LoadImage(im, decodeExtentTable); err != nil {
			t.Errorf("%s: load = %v", what, err)
		}
	}
}
